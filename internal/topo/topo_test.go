package topo

import (
	"strings"
	"testing"
)

func TestBuildersProduceValidGraphs(t *testing.T) {
	cases := map[string]*Graph{
		"frontier-4x2":  FrontierNode(4, 2, 8, 1, 1),
		"frontier-8x4":  FrontierNode(8, 4, 8, 1, 1),
		"frontier-16x8": FrontierNode(16, 8, 8, 1, 4),
		"asym":          FrontierNodeAsym(4, 2, 8, 2, 1, 1),
		"ring-2":        Ring(2, 2, 8, 1, 1),
		"ring-5":        Ring(5, 1, 8, 1, 1),
		"fc-4":          FullyConnected(4, 2, 8, 1, 1),
		"fc-6":          FullyConnected(6, 1, 8, 1, 1),
	}
	for name, g := range cases {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := g.Routes(); err != nil {
			t.Errorf("%s: routing: %v", name, err)
		}
	}
}

func TestFrontierNodeShape(t *testing.T) {
	g := FrontierNode(4, 2, 8, 1, 1)
	if g.NumClusters() != 2 || len(g.Devices) != 4 || len(g.Switches) != 2 || len(g.Links) != 5 {
		t.Fatalf("unexpected shape: %d clusters, %d devices, %d switches, %d links",
			g.NumClusters(), len(g.Devices), len(g.Switches), len(g.Links))
	}
	boundary := 0
	for _, l := range g.Links {
		if g.Boundary(l) {
			boundary++
		}
	}
	if boundary != 1 {
		t.Fatalf("2-cluster frontier has %d boundary links, want 1", boundary)
	}

	g8 := FrontierNode(8, 4, 8, 1, 1)
	if c, ok := g8.NodeCluster("swx"); !ok || c != Backbone {
		t.Fatalf("swx cluster = %d,%v want backbone", c, ok)
	}
	boundary = 0
	for _, l := range g8.Links {
		if g8.Boundary(l) {
			boundary++
		}
	}
	if boundary != 4 {
		t.Fatalf("4-cluster frontier has %d boundary links, want 4 uplinks", boundary)
	}
}

func TestAsymRates(t *testing.T) {
	l := Link{A: "a", B: "b", BW: 2, BWBack: 1}
	if l.RateAB() != 2 || l.RateBA() != 1 {
		t.Fatalf("asym rates %d/%d", l.RateAB(), l.RateBA())
	}
	sym := Link{A: "a", B: "b", BW: 3}
	if sym.RateAB() != 3 || sym.RateBA() != 3 {
		t.Fatalf("sym rates %d/%d", sym.RateAB(), sym.RateBA())
	}
}

func TestBuilderPanicsOnBadShape(t *testing.T) {
	for name, fn := range map[string]func(){
		"odd-split":   func() { FrontierNode(5, 2, 8, 1, 1) },
		"one-cluster": func() { FrontierNode(2, 1, 8, 1, 1) },
		"ring-1":      func() { Ring(1, 2, 8, 1, 1) },
		"fc-1":        func() { FullyConnected(1, 2, 8, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// chain builds a valid two-cluster graph and lets each case corrupt it.
func chain() *Graph {
	return &Graph{
		Name: "chain",
		Devices: []Device{
			{Name: "gpu0", Cluster: 0},
			{Name: "gpu1", Cluster: 1},
		},
		Switches: []Switch{
			{Name: "sw0", Cluster: 0},
			{Name: "sw1", Cluster: 1},
		},
		Links: []Link{
			{A: "gpu0", B: "sw0", BW: 8, Latency: 1},
			{A: "gpu1", B: "sw1", BW: 8, Latency: 1},
			{A: "sw0", B: "sw1", BW: 1, Latency: 1},
		},
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Graph)
		wantSub string
	}{
		{"no-devices", func(g *Graph) { g.Devices = nil }, "no devices"},
		{"no-switches", func(g *Graph) { g.Switches = nil }, "no switches"},
		{"empty-name", func(g *Graph) { g.Devices[0].Name = "" }, "empty name"},
		{"dup-name", func(g *Graph) { g.Switches[1].Name = "sw0" }, "duplicate node name"},
		{"dup-dev-sw-name", func(g *Graph) { g.Switches[0].Name = "gpu0" }, "duplicate node name"},
		{"dangling-a", func(g *Graph) { g.Links[2].A = "nope" }, "unknown node"},
		{"dangling-b", func(g *Graph) { g.Links[2].B = "nope" }, "unknown node"},
		{"negative-cluster", func(g *Graph) { g.Devices[0].Cluster = -3 }, "negative cluster"},
		{"cluster-gap", func(g *Graph) { g.Devices[1].Cluster = 2 }, "not contiguous"},
		{"switch-empty-cluster", func(g *Graph) { g.Switches[1].Cluster = 7 }, "has no devices"},
		{"self-loop", func(g *Graph) { g.Links[2].B = "sw0" }, "self-loop"},
		{"device-device", func(g *Graph) { g.Links[0].B = "gpu1" }, "device-device"},
		{"zero-bw", func(g *Graph) { g.Links[2].BW = 0 }, "out of range"},
		{"huge-bw", func(g *Graph) { g.Links[2].BW = MaxLinkBW + 1 }, "out of range"},
		{"negative-back-bw", func(g *Graph) { g.Links[2].BWBack = -1 }, "out of range"},
		{"zero-latency", func(g *Graph) { g.Links[2].Latency = 0 }, "latency"},
		{"huge-latency", func(g *Graph) { g.Links[2].Latency = MaxLinkLatency + 1 }, "latency"},
		{"negative-local-bw", func(g *Graph) { g.Links[2].LocalBW = -1 }, "local bandwidth"},
		{"parallel-link", func(g *Graph) {
			g.Links = append(g.Links, Link{A: "sw1", B: "sw0", BW: 1, Latency: 1})
		}, "parallel link"},
		{"device-two-links", func(g *Graph) {
			g.Links = append(g.Links, Link{A: "gpu0", B: "sw1", BW: 8, Latency: 1})
		}, "want exactly 1"},
		{"device-wrong-cluster", func(g *Graph) { g.Devices[0].Cluster = 1; g.Devices[1].Cluster = 0 }, "must match"},
		{"isolated-switch", func(g *Graph) {
			g.Switches = append(g.Switches, Switch{Name: "lonely", Cluster: 0})
		}, "no links"},
		{"disconnected", func(g *Graph) { g.Links[2].BW = 1; g.Links = g.Links[:2] }, "disconnected"},
	}
	for _, tc := range cases {
		g := chain()
		tc.mutate(g)
		err := g.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestValidateAcceptsChain(t *testing.T) {
	if err := chain().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTooManyPorts(t *testing.T) {
	g := &Graph{Name: "wide"}
	g.Switches = append(g.Switches, Switch{Name: "hub", Cluster: 0})
	for i := 0; i <= MaxSwitchPorts; i++ {
		name := "gpu" + string(rune('a'+i/26)) + string(rune('a'+i%26))
		g.Devices = append(g.Devices, Device{Name: name, Cluster: 0})
		g.Links = append(g.Links, Link{A: name, B: "hub", BW: 8, Latency: 1})
	}
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("oversubscribed switch accepted: %v", err)
	}
}

func TestPresets(t *testing.T) {
	names := Presets()
	if len(names) < 5 {
		t.Fatalf("only %d presets", len(names))
	}
	for _, n := range names {
		g, err := Preset(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := Preset("no-such-preset"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	seed, err := Preset("frontier-4x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(seed.Devices) != 4 || seed.NumClusters() != 2 {
		t.Fatalf("frontier-4x2 is %d devices / %d clusters", len(seed.Devices), seed.NumClusters())
	}
}

func TestDOT(t *testing.T) {
	g := FrontierNodeAsym(4, 2, 8, 2, 1, 4)
	dot := g.DOT()
	for _, want := range []string{
		"graph \"frontier-asym-4x2\"",
		"subgraph cluster_0",
		"subgraph cluster_1",
		"\"gpu3\"",
		"\"sw1\"",
		"shape=diamond",
		"style=bold, color=red", // the boundary link
		"2/1",                   // asymmetric bandwidth label
		"@4cy",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// TestDOTLargeGraph pins the scale-out rendering: past dotLargeNodes
// nodes the output switches to the hierarchical layout with devices
// collapsed into per-switch summary boxes, no per-link labels, and
// taper-point switches highlighted.
func TestDOTLargeGraph(t *testing.T) {
	g, err := Preset("fattree-64")
	if err != nil {
		t.Fatal(err)
	}
	dot := g.DOT()
	for _, want := range []string{
		"layout=dot",
		"rankdir=BT",
		`label="8 GPUs"`,        // collapsed device box
		`"e0.0.gpus"`,           // summary node id
		"fillcolor=orange",      // taper-point switch
		"style=bold, color=red", // boundary agg-core links
		"64 GPUs, 20 switches",  // header comment
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("large DOT missing %q", want)
		}
	}
	for _, reject := range []string{
		`"gpu0"`,      // individual devices must be collapsed
		"label=\"8\"", // per-link bandwidth labels must be dropped
		"@",           // latency labels likewise
	} {
		if strings.Contains(dot, reject) {
			t.Errorf("large DOT still contains %q", reject)
		}
	}
	// Core switches have no taper points (no egress slower than their
	// fastest) and stay unfilled.
	if strings.Contains(dot, `"c0" [shape=diamond, style=filled`) {
		t.Error("core switch c0 marked as a taper point")
	}
}
