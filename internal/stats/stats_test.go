package stats

import (
	"math"
	"testing"
	"testing/quick"

	"netcrafter/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestSampler(t *testing.T) {
	var s Sampler
	if s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty sampler not zeroed")
	}
	for _, v := range []float64{10, 20, 30} {
		s.Observe(v)
	}
	if s.Count() != 3 || s.Mean() != 20 || s.Max() != 30 || s.Min() != 10 || s.Sum() != 60 {
		t.Fatalf("sampler state wrong: n=%d mean=%f max=%f min=%f", s.Count(), s.Mean(), s.Max(), s.Min())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram("a", "b")
	h.Observe("a", 3)
	h.Observe("b", 1)
	h.Observe("c", 6) // dynamically added bucket
	if h.Total() != 10 {
		t.Fatalf("total = %d want 10", h.Total())
	}
	if h.Share("c") != 0.6 {
		t.Fatalf("share(c) = %f want 0.6", h.Share("c"))
	}
	order := h.Buckets()
	if len(order) != 3 || order[0] != "a" || order[2] != "c" {
		t.Fatalf("bucket order = %v", order)
	}
	if h.String() == "" {
		t.Fatal("empty String()")
	}
	empty := NewHistogram()
	if empty.Share("x") != 0 {
		t.Fatal("empty histogram share != 0")
	}
}

func TestHistogramObserveAtSharesNamedCounts(t *testing.T) {
	h := NewHistogram("a", "b")
	h.ObserveAt(1, 2)
	h.Observe("b", 3)
	h.ObserveAt(0, 1)
	if h.Get("a") != 1 || h.Get("b") != 5 || h.Total() != 6 {
		t.Fatalf("counts = %s, want a=1 b=5", h)
	}
	if got := h.String(); got != "a=1 b=5" {
		t.Fatalf("String() = %q", got)
	}
	if h.Get("missing") != 0 || len(h.Buckets()) != 2 {
		t.Fatal("reading an unknown bucket registered it")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ObserveAt on an unregistered bucket did not panic")
		}
	}()
	h.ObserveAt(2, 1)
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %f want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean with zero did not panic")
		}
	}()
	GeoMean([]float64{0})
}

// Property: GeoMean lies between min and max of the inputs.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = 0.001 + float64(r)/100
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanAndSortedKeys(t *testing.T) {
	if Mean(nil) != 0 || Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
	keys := SortedKeys(map[string]int{"b": 1, "a": 2})
	if len(keys) != 2 || keys[0] != "a" {
		t.Fatalf("SortedKeys = %v", keys)
	}
}

func TestLinkStats(t *testing.T) {
	l := NewLinkStats("x", 2)
	for c := 0; c < 10; c++ {
		l.RecordMove(sim.Cycle(10+c), 12, 16)
	}
	if u := l.Utilization(100); math.Abs(u-10.0/200.0) > 1e-12 {
		t.Fatalf("utilization = %f want 0.05", u)
	}
	if l.BytesMoved.Value() != 120 || l.SlotBytesMoved.Value() != 160 {
		t.Fatal("byte accounting wrong")
	}
	if l.Utilization(0) != 0 {
		t.Fatal("zero-window utilization != 0")
	}
}

func TestNetStats(t *testing.T) {
	n := NewNetStats()
	if n.StitchRate() != 0 || n.PTWShare() != 0 {
		t.Fatal("empty NetStats rates != 0")
	}
	n.FlitsTotal.Add(10)
	n.FlitsStitched.Add(4)
	n.PTWFlits.Add(1)
	n.DataFlits.Add(9)
	if n.StitchRate() != 0.4 {
		t.Fatalf("stitch rate = %f", n.StitchRate())
	}
	if n.PTWShare() != 0.1 {
		t.Fatalf("ptw share = %f", n.PTWShare())
	}
}
