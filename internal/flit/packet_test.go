package flit

import (
	"testing"
	"testing/quick"
)

// TestTable1Exact checks the package reproduces the paper's Table 1
// byte-for-byte at the baseline 16-byte flit size.
func TestTable1Exact(t *testing.T) {
	want := map[Type]Table1Row{
		ReadReq:  {ReadReq, 16, 12, 4, 1},
		WriteReq: {WriteReq, 80, 76, 4, 5},
		PTReq:    {PTReq, 16, 12, 4, 1},
		ReadRsp:  {ReadRsp, 80, 68, 12, 5},
		WriteRsp: {WriteRsp, 16, 4, 12, 1},
		PTRsp:    {PTRsp, 16, 12, 4, 1},
	}
	rows := Table1(DefaultFlitBytes)
	if len(rows) != 6 {
		t.Fatalf("Table1 has %d rows, want 6", len(rows))
	}
	for _, got := range rows {
		w := want[got.Type]
		if got != w {
			t.Errorf("%s: got %+v want %+v", got.Type, got, w)
		}
	}
}

func TestHeaderBytesPerFootnote(t *testing.T) {
	// Requests: 4B meta + 8B address. Responses: 4B meta only (the
	// PTRsp translated address counts as payload per Table 1).
	for _, tc := range []struct {
		typ  Type
		want int
	}{
		{ReadReq, 12}, {WriteReq, 12}, {PTReq, 12},
		{ReadRsp, 4}, {WriteRsp, 4}, {PTRsp, 4},
	} {
		p := &Packet{Type: tc.typ}
		if got := p.HeaderBytes(); got != tc.want {
			t.Errorf("%s header = %d want %d", tc.typ, got, tc.want)
		}
	}
}

func TestTrimmedReadRspSize(t *testing.T) {
	p := &Packet{Type: ReadRsp, TrimEligible: true, SectorOffset: 2}
	if p.RequiredBytes() != 68 {
		t.Fatalf("untrimmed ReadRsp required = %d want 68", p.RequiredBytes())
	}
	if !TrimResponse(p) {
		t.Fatal("TrimResponse refused an eligible response")
	}
	if p.RequiredBytes() != MetaHeaderBytes+SectorBytes {
		t.Fatalf("trimmed ReadRsp required = %d want %d", p.RequiredBytes(), MetaHeaderBytes+SectorBytes)
	}
	if p.FlitCount(16) != 2 {
		t.Fatalf("trimmed ReadRsp flits = %d want 2", p.FlitCount(16))
	}
	// Idempotent.
	if TrimResponse(p) {
		t.Fatal("TrimResponse modified an already trimmed packet")
	}
}

func TestTrimResponseIneligible(t *testing.T) {
	if TrimResponse(&Packet{Type: ReadRsp}) {
		t.Fatal("trimmed a response whose request was not trim-eligible")
	}
	if TrimResponse(&Packet{Type: WriteReq, TrimEligible: true}) {
		t.Fatal("trimmed a non-ReadRsp packet")
	}
}

func TestSegmentStructure(t *testing.T) {
	p := &Packet{Type: ReadRsp}
	fl := Segment(p, 16)
	if len(fl) != 5 {
		t.Fatalf("ReadRsp segments to %d flits, want 5", len(fl))
	}
	total := 0
	for i, f := range fl {
		if f.Seq != i {
			t.Errorf("flit %d has Seq %d", i, f.Seq)
		}
		if f.Last != (i == 4) {
			t.Errorf("flit %d Last=%v", i, f.Last)
		}
		total += f.Used
	}
	if total != 68 {
		t.Fatalf("segmented used bytes = %d want 68", total)
	}
	if fl[4].Used != 4 || fl[4].EmptyBytes() != 12 {
		t.Fatalf("tail flit used=%d empty=%d, want 4/12", fl[4].Used, fl[4].EmptyBytes())
	}
}

func TestSegmentTinyFlitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Segment with tiny flit size did not panic")
		}
	}()
	Segment(&Packet{Type: ReadReq}, 4)
}

// Property: for every type and reasonable flit size, segmentation
// conserves required bytes, every non-final flit is full, and the
// reassembler recovers the packet exactly once.
func TestSegmentReassembleProperty(t *testing.T) {
	f := func(typ8, size8 uint8, trimmed bool) bool {
		typ := Type(typ8 % uint8(NumTypes))
		flitBytes := 8 + int(size8%3)*8 // 8, 16, 24
		p := &Packet{ID: uint64(typ8)<<8 | uint64(size8), Type: typ}
		if typ == ReadRsp && trimmed {
			p.TrimEligible = true
			TrimResponse(p)
		}
		fl := Segment(p, flitBytes)
		total := 0
		for i, fr := range fl {
			if i < len(fl)-1 && fr.Used != flitBytes {
				return false
			}
			total += fr.Used
		}
		if total != p.RequiredBytes() {
			return false
		}
		r := NewReassembler()
		var done *Packet
		for _, fr := range fl {
			for _, d := range r.AddFlit(fr) {
				if done != nil {
					return false // completed twice
				}
				done = d
			}
		}
		return done == p && r.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReassemblerInterleavedPackets(t *testing.T) {
	a := &Packet{ID: 1, Type: ReadRsp}
	b := &Packet{ID: 2, Type: WriteReq}
	fa, fb := Segment(a, 16), Segment(b, 16)
	r := NewReassembler()
	var done []*Packet
	for i := 0; i < 5; i++ {
		done = append(done, r.AddFlit(fa[i])...)
		done = append(done, r.AddFlit(fb[i])...)
	}
	if len(done) != 2 || done[0] != a || done[1] != b {
		t.Fatalf("interleaved reassembly got %v", done)
	}
}

func TestReassemblerOverReceivePanics(t *testing.T) {
	p := &Packet{ID: 9, Type: ReadReq}
	r := NewReassembler()
	r.Add(p, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("over-receive did not panic")
		}
	}()
	r.Add(p, 2)
}

func TestCrossesClusters(t *testing.T) {
	p := &Packet{SrcCluster: 0, DstCluster: 1}
	if !p.CrossesClusters() {
		t.Fatal("0->1 does not cross clusters")
	}
	p.DstCluster = 0
	if p.CrossesClusters() {
		t.Fatal("0->0 crosses clusters")
	}
}

func TestTypePredicates(t *testing.T) {
	if !PTReq.IsPTW() || !PTRsp.IsPTW() || ReadReq.IsPTW() {
		t.Fatal("IsPTW misclassifies")
	}
	if !ReadRsp.IsResponse() || !WriteRsp.IsResponse() || !PTRsp.IsResponse() || ReadReq.IsResponse() {
		t.Fatal("IsResponse misclassifies")
	}
	if ReadReq.String() != "ReadReq" || Type(99).String() == "" {
		t.Fatal("String misbehaves")
	}
}

// TestReassemblerAddFlitNoAllocs pins reassembly at zero allocations:
// the per-packet byte count rides on the packet and the completed list
// reuses one slice. A single-flit packet completes without ever
// counting as pending.
func TestReassemblerAddFlitNoAllocs(t *testing.T) {
	single := Segment(&Packet{ID: 2, Type: ReadReq}, 16)[0]
	fs := Segment(&Packet{ID: 3, Type: ReadRsp}, 16)
	r := NewReassembler()
	allocs := testing.AllocsPerRun(100, func() {
		if done := r.AddFlit(single); len(done) != 1 || r.Pending() != 0 {
			t.Fatalf("single flit: completed %v, pending %d", done, r.Pending())
		}
		for i, f := range fs {
			done := r.AddFlit(f)
			if last := i == len(fs)-1; last != (len(done) == 1) || r.Pending() != btoi(!last) {
				t.Fatalf("flit %d: completed %v, pending %d", i, done, r.Pending())
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("AddFlit allocates %.1f per packet, want 0", allocs)
	}
}

// TestSegmentAllocatesOneBlock pins segmentation and un-stitching at
// two allocations (the flit block and the returned slice) whatever the
// flit count.
func TestSegmentAllocatesOneBlock(t *testing.T) {
	for _, typ := range []Type{ReadReq, ReadRsp} {
		p := &Packet{Type: typ}
		if got := testing.AllocsPerRun(100, func() { Segment(p, 8) }); got != 2 {
			t.Errorf("%v: Segment allocates %.1f, want 2", typ, got)
		}
	}
	parent := &Flit{Size: 16}
	items := []StitchItem{{Used: 4}, {Used: 4}}
	got := testing.AllocsPerRun(100, func() {
		parent.Stitched = items
		if out := Unstitch(parent); len(out) != 2 || out[1].Used != 4 || out[1].Size != 16 {
			t.Fatalf("Unstitch = %v", out)
		}
	})
	if got != 2 {
		t.Errorf("Unstitch allocates %.1f, want 2", got)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
