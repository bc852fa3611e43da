package flit

// Stitching rules (Section 4.2 of the paper):
//
//   - A candidate may be stitched into a parent flit only if both flits
//     follow the same route across the bottleneck link — modeled as the
//     same destination cluster (the controller's granularity).
//   - A candidate carrying a complete packet (header + payload in one
//     flit) is stitched raw. A candidate carrying only a payload slice
//     of a larger packet is prepended with StitchMetaBytes of ID+Size.
//   - The candidate's wire bytes must fit in the parent's empty bytes.
//   - Multiple candidates may be stitched while space remains; a flit
//     that already carries stitched content can accept more.
//   - A flit that itself carries stitched content cannot become a
//     candidate (it is already scheduled for ejection as a parent).

// CanStitch reports whether cand can be stitched into parent.
func CanStitch(parent, cand *Flit) bool {
	if parent == cand {
		return false
	}
	if cand.IsStitched() {
		return false
	}
	if parent.Pkt.DstCluster != cand.Pkt.DstCluster {
		return false
	}
	return candWireBytes(cand) <= parent.EmptyBytes()
}

func candWireBytes(cand *Flit) int {
	if cand.IsWholePacket() {
		return cand.Used
	}
	return cand.Used + StitchMetaBytes
}

// Stitch merges cand into parent. It panics if CanStitch is false —
// callers must check first (the stitch engine always does).
func Stitch(parent, cand *Flit) {
	if !CanStitch(parent, cand) {
		panic("flit: Stitch called on incompatible flits")
	}
	parent.Stitched = append(parent.Stitched, StitchItem{
		Pkt:     cand.Pkt,
		Seq:     cand.Seq,
		Used:    cand.Used,
		Last:    cand.Last,
		Partial: !cand.IsWholePacket(),
	})
}

// Unstitch extracts the stitched items of f as standalone flits (in
// stitch order) and clears them from f. The receiving-side controller
// uses this before forwarding flits into the destination cluster. Like
// Segment, it allocates the flits as one block.
func Unstitch(f *Flit) []*Flit {
	if len(f.Stitched) == 0 {
		return nil
	}
	block := make([]Flit, len(f.Stitched))
	out := make([]*Flit, len(f.Stitched))
	for i, it := range f.Stitched {
		block[i] = Flit{
			Pkt:  it.Pkt,
			Seq:  it.Seq,
			Used: it.Used,
			Last: it.Last,
			Size: f.Size,
		}
		out[i] = &block[i]
	}
	f.Stitched = nil
	return out
}

// OccupancyClass buckets a flit by its padding fraction, reproducing the
// Fig-6 categorization ("flits with 25% or 75% padded bytes").
type OccupancyClass uint8

const (
	// OccFull — no padding.
	OccFull OccupancyClass = iota
	// OccPad25 — about a quarter of the flit is padding.
	OccPad25
	// OccPad75 — about three quarters of the flit is padding.
	OccPad75
	// OccOther — any other padding fraction.
	OccOther
)

func (c OccupancyClass) String() string {
	switch c {
	case OccFull:
		return "full"
	case OccPad25:
		return "pad25"
	case OccPad75:
		return "pad75"
	default:
		return "other"
	}
}

// Occupancy classifies a flit by the fraction of padded bytes in its
// slot. Fractions are bucketed to the nearest of 0%, 25%, 75%.
func Occupancy(f *Flit) OccupancyClass {
	frac := float64(f.EmptyBytes()) / float64(f.Size)
	switch {
	case frac == 0:
		return OccFull
	case frac <= 0.5:
		return OccPad25
	case frac <= 0.875:
		return OccPad75
	default:
		return OccOther
	}
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Type          Type
	BytesOccupied int // flits × flit size
	BytesRequired int
	BytesPadded   int
	FlitsOccupied int
}

// Table1 computes the categorization of Table 1 for a flit size,
// straight from the per-type wire metadata (untrimmed packets).
func Table1(flitBytes int) []Table1Row {
	order := []Type{ReadReq, WriteReq, PTReq, ReadRsp, WriteRsp, PTRsp}
	rows := make([]Table1Row, 0, len(order))
	for _, t := range order {
		required := headerBytes(t) + basePayloadBytes(t)
		flits := (required + flitBytes - 1) / flitBytes
		rows = append(rows, Table1Row{
			Type:          t,
			BytesOccupied: flits * flitBytes,
			BytesRequired: required,
			BytesPadded:   flits*flitBytes - required,
			FlitsOccupied: flits,
		})
	}
	return rows
}
