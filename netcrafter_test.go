package netcrafter_test

import (
	"testing"

	"netcrafter"
)

// TestPublicAPIQuickstart is the README example as a test.
func TestPublicAPIQuickstart(t *testing.T) {
	sc := netcrafter.Tiny()
	base, err := netcrafter.Run(netcrafter.Baseline(), "GUPS", sc)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := netcrafter.Run(netcrafter.WithNetCrafter(), "GUPS", sc)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Speedup(base) <= 0 {
		t.Fatal("speedup not computable")
	}
	if base.Workload != "GUPS" || base.Cycles == 0 {
		t.Fatal("result fields empty")
	}
}

func TestPublicAPIConfigs(t *testing.T) {
	// 128 and 16 GB/s are 8 and 1 flits/cycle at 16-byte flits.
	base, err := netcrafter.FrontierTopology(4, 2, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := netcrafter.FrontierTopology(4, 2, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := netcrafter.PaperTopology(4, 2, 128, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if netcrafter.Baseline().Topo.DOT() != base.DOT() || paper.DOT() != base.DOT() ||
		netcrafter.Ideal().Topo.DOT() != ideal.DOT() {
		t.Fatal("preset fabrics wrong")
	}
	nc := netcrafter.WithNetCrafter()
	if !nc.NetCrafter.EnableStitch || !nc.NetCrafter.EnableTrim || nc.NetCrafter.Sequencing != netcrafter.SeqPTW {
		t.Fatal("WithNetCrafter incomplete")
	}
	if netcrafter.ControllerBaseline().PoolingCycles != 32 {
		t.Fatal("controller baseline wrong")
	}
	if netcrafter.ControllerOff().EnableStitch {
		t.Fatal("controller off not off")
	}
	if len(netcrafter.Workloads()) != 15 {
		t.Fatal("workload list wrong")
	}
	if len(netcrafter.Experiments()) < 20 {
		t.Fatal("experiment list wrong")
	}
}

// TestPublicAPIRejectsBadShapes pins the facade topology builders to
// errors, not panics, for shapes and parameters they cannot build.
func TestPublicAPIRejectsBadShapes(t *testing.T) {
	frontier := []struct{ gpus, clusters, intra, inter, lat int }{
		{3, 2, 8, 1, 1}, // GPUs do not split evenly
		{4, 1, 8, 1, 1}, // one cluster
		{4, 0, 8, 1, 1},
		{2, 4, 8, 1, 1}, // fewer GPUs than clusters
		{-4, -2, 8, 1, 1},
		{4, 2, 0, 1, 1}, // bandwidth out of range
		{4, 2, 8, 1, 0}, // latency out of range
	}
	for _, c := range frontier {
		if g, err := netcrafter.FrontierTopology(c.gpus, c.clusters, c.intra, c.inter, netcrafter.Cycle(c.lat)); err == nil || g != nil {
			t.Errorf("FrontierTopology%v = %v, %v; want an error", c, g, err)
		}
	}
	paper := []struct{ gpus, clusters, intra, inter, flit int }{
		{3, 2, 128, 16, 16},
		{4, 1, 128, 16, 16},
		{4, 2, 128, 16, 0}, // flit size
		{4, 2, 128, 16, -16},
		{4, 2, 1 << 30, 16, 16}, // more flits/cycle than a link carries
	}
	for _, c := range paper {
		if g, err := netcrafter.PaperTopology(c.gpus, c.clusters, c.intra, c.inter, c.flit); err == nil || g != nil {
			t.Errorf("PaperTopology%v = %v, %v; want an error", c, g, err)
		}
	}
}

func TestPublicAPITable1(t *testing.T) {
	rows := netcrafter.Table1(16)
	if len(rows) != 6 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BytesOccupied != r.BytesRequired+r.BytesPadded {
			t.Fatalf("%s: occupied != required+padded", r.Type)
		}
	}
}

func TestPublicAPICustomSystem(t *testing.T) {
	cfg := netcrafter.Baseline()
	cfg.NetCrafter = netcrafter.ControllerBaseline()
	cfg.NetCrafter.PoolingCycles = 64
	cfg.GPU.FetchMode = netcrafter.FetchFullLine
	sys, err := netcrafter.BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumClusters() != 2 {
		t.Fatal("custom system wrong")
	}
	r, err := netcrafter.RunWithLimit(cfg, "BS", netcrafter.Tiny(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions == 0 {
		t.Fatal("no instructions")
	}
}

func TestPublicAPIExperiment(t *testing.T) {
	rep, err := netcrafter.RunExperiment("table1", netcrafter.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rep.Value("ReadRsp", "padded"); !ok || v != 12 {
		t.Fatalf("experiment value = %v,%v", v, ok)
	}
}

// TestPublicAPIRejectsBadFabrics checks a missing or single-cluster
// fabric, and a flow-backend config (which has no ticked system), come
// back as errors from BuildSystem and Run alike, never a panic.
func TestPublicAPIRejectsBadFabrics(t *testing.T) {
	one, err := netcrafter.ParseTopology([]byte(`{
	  "name": "one",
	  "devices": [{"name": "gpu0", "cluster": 0}, {"name": "gpu1", "cluster": 0}],
	  "switches": [{"name": "sw0", "cluster": 0}],
	  "links": [{"a": "gpu0", "b": "sw0", "bw": 8}, {"a": "gpu1", "b": "sw0", "bw": 8}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	flow := netcrafter.WithNetCrafter()
	flow.Backend = netcrafter.BackendFlow
	for _, cfg := range []netcrafter.Config{{}, netcrafter.Baseline().WithTopology(one), flow} {
		if _, err := netcrafter.BuildSystem(cfg); err == nil {
			t.Errorf("BuildSystem accepted fabric %v on backend %q", cfg.Topo, cfg.Backend)
		}
		if _, err := netcrafter.Run(cfg, "GUPS", netcrafter.Tiny()); err == nil {
			t.Errorf("Run accepted fabric %v on backend %q", cfg.Topo, cfg.Backend)
		}
	}
}
