package flow

import (
	"reflect"
	"testing"

	"netcrafter/internal/topo"
)

// referencePaths is the pre-index compile, preserved as the oracle
// NewNetwork must reproduce exactly: string-keyed segment and attach
// maps, and an independent name-by-name walk for each direction of
// every ordered pair. The next-hop map is the string form of Routes,
// whose tables the topo package pins against its own reference BFS.
func referencePaths(t *testing.T, g *topo.Graph, opt Options) []path {
	t.Helper()
	opt = opt.WithDefaults()
	r, err := g.Routes()
	if err != nil {
		t.Fatalf("%s: Routes: %v", g.Name, err)
	}
	hops := make(map[string]map[string]string, len(g.Switches))
	for s, sw := range g.Switches {
		m := make(map[string]string, len(g.Devices))
		for d, dev := range g.Devices {
			m[dev.Name] = r.NextHopName(s, d)
		}
		hops[sw.Name] = m
	}

	type dirSeg struct {
		id  int32
		lat float64
	}
	segOf := make(map[[2]string]dirSeg, 2*len(g.Links))
	for i, l := range g.Links {
		segOf[[2]string{l.A, l.B}] = dirSeg{int32(2 * i), float64(l.Latency)}
		segOf[[2]string{l.B, l.A}] = dirSeg{int32(2*i + 1), float64(l.Latency)}
	}
	isDev := make(map[string]bool, len(g.Devices))
	for _, d := range g.Devices {
		isDev[d.Name] = true
	}
	attach := make(map[string]string, len(g.Devices))
	for _, l := range g.Links {
		switch {
		case isDev[l.A]:
			attach[l.A] = l.B
		case isDev[l.B]:
			attach[l.B] = l.A
		}
	}

	hopLat := float64(opt.HopCycles)
	walk := func(src, dst int) ([]int32, float64) {
		srcName, dstName := g.Devices[src].Name, g.Devices[dst].Name
		var segs []int32
		lat := 0.0
		cur, next := srcName, attach[srcName]
		for steps := 0; ; steps++ {
			if steps > len(g.Switches)+1 {
				t.Fatalf("%s: reference: routing loop between %s and %s", g.Name, srcName, dstName)
			}
			ds, ok := segOf[[2]string{cur, next}]
			if !ok {
				t.Fatalf("%s: reference: no link %s-%s", g.Name, cur, next)
			}
			segs = append(segs, ds.id)
			lat += ds.lat
			if next == dstName {
				return segs, lat
			}
			lat += hopLat
			cur, next = next, hops[next][dstName]
		}
	}

	nDev := len(g.Devices)
	paths := make([]path, nDev*nDev)
	for src := 0; src < nDev; src++ {
		for dst := 0; dst < nDev; dst++ {
			if src == dst {
				continue
			}
			fwd, latF := walk(src, dst)
			rev, latR := walk(dst, src)
			paths[src*nDev+dst] = path{fwd: fwd, rev: rev, lat: latF + latR}
		}
	}
	return paths
}

// TestNewNetworkMatchesReference pins the indexed compile to the
// string-map walk on every preset, the 512-GPU fabrics included:
// identical forward and acknowledgment segment lists and round-trip
// latency for every ordered pair, with each pair's acknowledgment path
// the forward path of its opposite pair.
func TestNewNetworkMatchesReference(t *testing.T) {
	for _, name := range topo.Presets() {
		g, err := topo.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		n, err := NewNetwork(g, Options{})
		if err != nil {
			t.Fatalf("%s: NewNetwork: %v", name, err)
		}
		want := referencePaths(t, g, Options{})
		nDev := n.Devices()
		if nDev != len(g.Devices) || len(n.paths) != len(want) {
			t.Fatalf("%s: %d devices / %d paths, want %d / %d",
				name, nDev, len(n.paths), len(g.Devices), len(want))
		}
		if n.injBase != 2*len(g.Links) || len(n.cap) != n.injBase+nDev {
			t.Fatalf("%s: %d segments from injBase %d, want %d from %d",
				name, len(n.cap), n.injBase, 2*len(g.Links)+nDev, 2*len(g.Links))
		}
		for src := 0; src < nDev; src++ {
			for dst := 0; dst < nDev; dst++ {
				if src == dst {
					continue
				}
				got, ref := n.paths[src*nDev+dst], want[src*nDev+dst]
				if !reflect.DeepEqual(got.fwd, ref.fwd) || !reflect.DeepEqual(got.rev, ref.rev) || got.lat != ref.lat {
					t.Fatalf("%s: path %d->%d = %v/%v/%v, reference %v/%v/%v",
						name, src, dst, got.fwd, got.rev, got.lat, ref.fwd, ref.rev, ref.lat)
				}
				if opp := n.paths[dst*nDev+src]; !reflect.DeepEqual(got.rev, opp.fwd) {
					t.Fatalf("%s: rev(%d,%d) = %v, fwd(%d,%d) = %v",
						name, src, dst, got.rev, dst, src, opp.fwd)
				}
			}
		}
	}
}

// NewNetwork (and so Run, which -topo specs reach with -backend flow)
// rejects a structurally invalid graph with an error, never a panic.
func TestNewNetworkRejectsInvalidGraph(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(g *topo.Graph)
	}{
		{"dangling endpoint", func(g *topo.Graph) { g.Links[0].B = "sw9" }},
		{"device-device link", func(g *topo.Graph) {
			g.Links = append(g.Links, topo.Link{A: "gpu0", B: "gpu1", BW: 8, Latency: 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := topo.FrontierNode(4, 2, 8, 1, 1)
			tc.mutate(g)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if n, err := NewNetwork(g, Options{}); err == nil {
				t.Fatalf("NewNetwork accepted the graph (%d devices)", n.Devices())
			}
			if _, err := Run(g, onePlan(), Options{}, 0); err == nil {
				t.Fatal("Run accepted the graph")
			}
		})
	}
}

// BenchmarkNewNetwork compiles the 512-GPU fat-tree: 261632 ordered
// pairs. Compilation allocates by design, so there is no alloc pin.
func BenchmarkNewNetwork(b *testing.B) {
	g, err := topo.Preset("fattree-512")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewNetwork(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
