package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"netcrafter/internal/sim"
)

// referenceNextHops is the seed's routing algorithm, preserved verbatim
// as the oracle the indexed core must reproduce bit-exactly: one BFS
// per device over append-built adjacency lists, ties broken toward the
// neighbor attached by the earliest-declared link. It shares no code
// with the production path.
func referenceNextHops(t *testing.T, g *Graph) map[string]map[string]string {
	t.Helper()
	id := map[string]int{}
	var names []string
	add := func(n string) { id[n] = len(names); names = append(names, n) }
	for _, d := range g.Devices {
		add(d.Name)
	}
	for _, s := range g.Switches {
		add(s.Name)
	}
	adj := make([][]int, len(names))
	for _, l := range g.Links {
		a, b := id[l.A], id[l.B]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	hops := make(map[string]map[string]string, len(g.Switches))
	for _, s := range g.Switches {
		hops[s.Name] = make(map[string]string, len(g.Devices))
	}
	dist := make([]int, len(names))
	for di, d := range g.Devices {
		for i := range dist {
			dist[i] = -1
		}
		queue := []int{di}
		dist[di] = 0
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, p := range adj[n] {
				if dist[p] < 0 {
					dist[p] = dist[n] + 1
					queue = append(queue, p)
				}
			}
		}
		for _, s := range g.Switches {
			si := id[s.Name]
			if dist[si] < 0 {
				t.Fatalf("reference: no path from %s to %s", s.Name, d.Name)
			}
			for _, p := range adj[si] {
				if dist[p] == dist[si]-1 {
					hops[s.Name][d.Name] = names[p]
					break
				}
			}
		}
	}
	return hops
}

// hopMap is the string form of a graph's Routes table, in the shape
// of the reference: hops[switch][device] = next-hop node name.
func hopMap(t *testing.T, g *Graph) map[string]map[string]string {
	t.Helper()
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
	return hops
}

// deviceDistances BFS-computes every node's hop distance to one device,
// independently of the production index.
func deviceDistances(g *Graph, dev string) map[string]int {
	adj := map[string][]string{}
	for _, l := range g.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	dist := map[string]int{dev: 0}
	queue := []string{dev}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range adj[n] {
			if _, ok := dist[p]; !ok {
				dist[p] = dist[n] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist
}

// checkRoutingSound asserts the no-loop property on one graph: from
// every switch, following Routes toward every device strictly
// decreases the hop distance each step and reaches the device in
// exactly its shortest-path distance.
func checkRoutingSound(t *testing.T, g *Graph) {
	t.Helper()
	hops := hopMap(t, g)
	for _, d := range g.Devices {
		dist := deviceDistances(g, d.Name)
		for _, s := range g.Switches {
			cur, steps := s.Name, 0
			for cur != d.Name {
				next, ok := hops[cur][d.Name]
				if !ok {
					t.Fatalf("%s: no next hop from %s toward %s", g.Name, cur, d.Name)
				}
				if dist[next] != dist[cur]-1 {
					t.Fatalf("%s: hop %s -> %s toward %s does not decrease distance (%d -> %d)",
						g.Name, cur, next, d.Name, dist[cur], dist[next])
				}
				cur = next
				if steps++; steps > len(g.Devices)+len(g.Switches) {
					t.Fatalf("%s: routing loop from %s toward %s", g.Name, s.Name, d.Name)
				}
			}
			if steps != dist[s.Name] {
				t.Fatalf("%s: path %s -> %s took %d hops, shortest is %d",
					g.Name, s.Name, d.Name, steps, dist[s.Name])
			}
		}
	}
}

// randomGraph builds a deterministic pseudo-random valid fabric:
// clustered switches with 1-3 GPUs each, optional backbone switches, a
// random connecting chain plus random extra switch-switch links at
// random asymmetric rates.
func randomGraph(r *rand.Rand, seed int) *Graph {
	nClusters := 2 + r.Intn(4)
	nBackbone := r.Intn(3)
	g := &Graph{Name: fmt.Sprintf("rand-%d", seed)}
	gpu := 0
	for c := 0; c < nClusters; c++ {
		g.Switches = append(g.Switches, Switch{Name: fmt.Sprintf("sw%d", c), Cluster: c})
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			name := fmt.Sprintf("gpu%d", gpu)
			g.Devices = append(g.Devices, Device{Name: name, Cluster: c})
			g.Links = append(g.Links, Link{A: name, B: fmt.Sprintf("sw%d", c), BW: 1 + r.Intn(8), Latency: 1})
			gpu++
		}
	}
	for b := 0; b < nBackbone; b++ {
		g.Switches = append(g.Switches, Switch{Name: fmt.Sprintf("bb%d", b), Cluster: Backbone})
	}
	// A random spanning chain over the switches, then random extras.
	order := r.Perm(len(g.Switches))
	used := map[[2]int]bool{}
	connect := func(i, j int) {
		if i == j {
			return
		}
		key := [2]int{min(i, j), max(i, j)}
		if used[key] {
			return
		}
		used[key] = true
		g.Links = append(g.Links, Link{
			A: g.Switches[i].Name, B: g.Switches[j].Name,
			BW: 1 + r.Intn(8), BWBack: r.Intn(9), Latency: 1 + sim.Cycle(r.Intn(3)),
		})
	}
	for i := 1; i < len(order); i++ {
		connect(order[i-1], order[i])
	}
	for e, n := 0, r.Intn(2*len(g.Switches)); e < n; e++ {
		connect(r.Intn(len(g.Switches)), r.Intn(len(g.Switches)))
	}
	return g
}

// TestRoutesMatchesReference pins the indexed routing core to the
// seed's per-device BFS on every preset and on a corpus of random
// fabrics: the tables must be identical entry for entry, not merely
// loop-free.
func TestRoutesMatchesReference(t *testing.T) {
	var graphs []*Graph
	for _, name := range Presets() {
		g, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		g := randomGraph(r, i)
		if err := g.Validate(); err != nil {
			t.Fatalf("random graph %d invalid: %v", i, err)
		}
		graphs = append(graphs, g)
	}
	for _, g := range graphs {
		got := hopMap(t, g)
		want := referenceNextHops(t, g)
		if !reflect.DeepEqual(got, want) {
			for sw, m := range want {
				for dev, hop := range m {
					if got[sw][dev] != hop {
						t.Errorf("%s: hops[%s][%s] = %q, reference %q",
							g.Name, sw, dev, got[sw][dev], hop)
					}
				}
			}
			t.Fatalf("%s: routing tables diverge from the pre-refactor reference", g.Name)
		}
	}
}

// TestRoutesNoRoutingLoops checks the strict-decrease property on
// every preset and the same random corpus.
func TestRoutesNoRoutingLoops(t *testing.T) {
	for _, name := range Presets() {
		g, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		checkRoutingSound(t, g)
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		checkRoutingSound(t, randomGraph(r, i))
	}
}

// TestScaleRoutingUnderBudget is the acceptance bound of the indexed
// core: Validate plus Routes on the 256-GPU fat-tree preset in under
// five seconds (it runs in milliseconds; the generous bound keeps slow
// CI hosts honest without flaking).
func TestScaleRoutingUnderBudget(t *testing.T) {
	g, err := Preset("fattree-256")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	hops := hopMap(t, g)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Validate+Routes on fattree-256 took %v, budget 5s", elapsed)
	}
	if len(hops) != len(g.Switches) {
		t.Fatalf("routing covers %d switches, graph has %d", len(hops), len(g.Switches))
	}
	for sw, m := range hops {
		if len(m) != len(g.Devices) {
			t.Fatalf("switch %s routes %d devices, want %d", sw, len(m), len(g.Devices))
		}
	}
}
