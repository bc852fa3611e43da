package topo

import (
	"errors"
	"fmt"
	"sort"

	"netcrafter/internal/names"
	"netcrafter/internal/sim"
)

// Programmatic builders. All bandwidths are flits/cycle per direction;
// at 16-byte flits and the 1 GHz clock, the paper's Table-2 node is
// intraBW=8 (128 GB/s) and interBW=1 (16 GB/s). Builders panic on
// impossible shape arguments (programmer error, like the hand-wired
// constructor before them) and always return a graph that passes
// Validate.

// evenClusters splits nGPUs evenly over nClusters, building the
// per-cluster switch and GPU attachments shared by every builder.
func evenClusters(name string, nGPUs, nClusters, intraBW int, lat sim.Cycle) *Graph {
	if err := splitError(nGPUs, nClusters); err != nil {
		panic(err)
	}
	g := &Graph{Name: name}
	per := nGPUs / nClusters
	for c := 0; c < nClusters; c++ {
		g.Switches = append(g.Switches, Switch{Name: fmt.Sprintf("sw%d", c), Cluster: c})
	}
	for i := 0; i < nGPUs; i++ {
		g.Devices = append(g.Devices, Device{Name: fmt.Sprintf("gpu%d", i), Cluster: i / per})
	}
	for c := 0; c < nClusters; c++ {
		for i := 0; i < per; i++ {
			d := c*per + i
			g.Links = append(g.Links, Link{
				A: fmt.Sprintf("gpu%d", d), B: fmt.Sprintf("sw%d", c),
				BW: intraBW, Latency: lat,
			})
		}
	}
	return g
}

// splitError reports why nGPUs cannot split evenly over nClusters
// clusters, or nil when they can.
func splitError(nGPUs, nClusters int) error {
	if nClusters < 1 || nGPUs < nClusters || nGPUs%nClusters != 0 {
		return fmt.Errorf("topo: cannot split %d GPUs into %d equal clusters", nGPUs, nClusters)
	}
	return nil
}

// FrontierShapeError returns the error FrontierNode panics with for a
// shape it cannot build — nGPUs not split evenly over at least two
// clusters — or nil. Builders fed by user input check it first.
func FrontierShapeError(nGPUs, nClusters int) error {
	if nClusters == 1 {
		return errors.New("topo: FrontierNode needs at least two clusters")
	}
	return splitError(nGPUs, nClusters)
}

// FrontierNode is the paper's Figure-2 node generalized to nGPUs GPUs
// split evenly over nClusters clusters: GPUs pair onto a per-cluster
// switch by intraBW links; with two clusters the switches join by one
// direct interBW link, with more they hang off a central backbone
// switch ("swx"), each uplink at interBW. The 4-GPU/2-cluster instance
// at intraBW=8, interBW=1 is exactly the seed system.
func FrontierNode(nGPUs, nClusters, intraBW, interBW int, lat sim.Cycle) *Graph {
	if err := FrontierShapeError(nGPUs, nClusters); err != nil {
		panic(err)
	}
	g := evenClusters(fmt.Sprintf("frontier-%dx%d", nGPUs, nClusters), nGPUs, nClusters, intraBW, lat)
	if nClusters == 2 {
		g.Links = append(g.Links, Link{A: "sw0", B: "sw1", BW: interBW, Latency: lat})
		return g
	}
	g.Switches = append(g.Switches, Switch{Name: "swx", Cluster: Backbone})
	for c := 0; c < nClusters; c++ {
		g.Links = append(g.Links, Link{A: fmt.Sprintf("sw%d", c), B: "swx", BW: interBW, Latency: lat})
	}
	return g
}

// FrontierNodeAsym is FrontierNode with direction-asymmetric
// inter-cluster links: interBW flits/cycle outbound from each cluster,
// interBWBack inbound — e.g. a fabric provisioned wider for response
// traffic than for requests.
func FrontierNodeAsym(nGPUs, nClusters, intraBW, interBW, interBWBack int, lat sim.Cycle) *Graph {
	g := FrontierNode(nGPUs, nClusters, intraBW, interBW, lat)
	g.Name = fmt.Sprintf("frontier-asym-%dx%d", nGPUs, nClusters)
	for i := range g.Links {
		if g.Boundary(g.Links[i]) {
			g.Links[i].BWBack = interBWBack
		}
	}
	return g
}

// Ring joins nClusters cluster switches in a ring of interBW links
// (a single link when nClusters == 2). Traffic between non-adjacent
// clusters transits intermediate clusters' controllers — the multi-hop
// stress case for the routing and controller layers.
func Ring(nClusters, gpusPerCluster, intraBW, interBW int, lat sim.Cycle) *Graph {
	g := evenClusters(fmt.Sprintf("ring-%dx%d", nClusters*gpusPerCluster, nClusters),
		nClusters*gpusPerCluster, nClusters, intraBW, lat)
	if nClusters < 2 {
		panic("topo: Ring needs at least two clusters")
	}
	last := nClusters
	if nClusters == 2 {
		last = 1 // avoid the duplicate 1-0 closing link
	}
	for c := 0; c < last; c++ {
		g.Links = append(g.Links, Link{
			A: fmt.Sprintf("sw%d", c), B: fmt.Sprintf("sw%d", (c+1)%nClusters),
			BW: interBW, Latency: lat,
		})
	}
	return g
}

// FullyConnected joins every pair of cluster switches directly at
// interBW — the most port-hungry fabric (each cluster switch carries
// gpusPerCluster + nClusters - 1 graph links).
func FullyConnected(nClusters, gpusPerCluster, intraBW, interBW int, lat sim.Cycle) *Graph {
	g := evenClusters(fmt.Sprintf("fc-%dx%d", nClusters*gpusPerCluster, nClusters),
		nClusters*gpusPerCluster, nClusters, intraBW, lat)
	if nClusters < 2 {
		panic("topo: FullyConnected needs at least two clusters")
	}
	for c := 0; c < nClusters; c++ {
		for d := c + 1; d < nClusters; d++ {
			g.Links = append(g.Links, Link{
				A: fmt.Sprintf("sw%d", c), B: fmt.Sprintf("sw%d", d),
				BW: interBW, Latency: lat,
			})
		}
	}
	return g
}

// presets are the named topologies reachable from the CLI (-topo) and
// benches. Bandwidths assume 16-byte flits at 1 GHz (8 = 128 GB/s,
// 1 = 16 GB/s).
var presets = map[string]func() *Graph{
	"frontier-4x2": func() *Graph { return FrontierNode(4, 2, 8, 1, 1) },
	"frontier-8x2": func() *Graph { return FrontierNode(8, 2, 8, 1, 1) },
	"frontier-8x4": func() *Graph { return FrontierNode(8, 4, 8, 1, 1) },
	"ring-8x4":     func() *Graph { return Ring(4, 2, 8, 1, 1) },
	"fc-8x4":       func() *Graph { return FullyConnected(4, 2, 8, 1, 1) },
	"asym-4x2":     func() *Graph { return FrontierNodeAsym(4, 2, 8, 2, 1, 1) },
	"uniform-4x2":  func() *Graph { return FrontierNode(4, 2, 8, 8, 1) },

	// Scale-out fabrics (see scaleout.go): rates taper upward — hosts
	// at 8 flits/cycle, fat-tree edge->agg at 4 and agg->core at 2,
	// dragonfly global channels at 2 — so the controller placement rule
	// lands a controller at every up-link and global-link egress.
	"fattree-64":    func() *Graph { return FatTree(4, 8, 8, 4, 2, 1) },
	"fattree-128":   func() *Graph { return FatTree(8, 4, 8, 4, 2, 1) },
	"fattree-256":   func() *Graph { return FatTree(8, 8, 8, 4, 2, 1) },
	"fattree-512":   func() *Graph { return FatTree(8, 16, 8, 4, 2, 1) },
	"dragonfly-64":  func() *Graph { return Dragonfly(4, 8, 2, 2, 8, 2, 1) },
	"dragonfly-128": func() *Graph { return Dragonfly(4, 8, 2, 4, 8, 2, 1) },
	"dragonfly-256": func() *Graph { return Dragonfly(8, 16, 2, 2, 8, 2, 1) },
	"dragonfly-512": func() *Graph { return Dragonfly(8, 16, 2, 4, 8, 2, 1) },
}

// Presets lists the available preset names, sorted.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns a named preset topology; unknown names get a
// did-you-mean error listing the valid presets.
func Preset(name string) (*Graph, error) {
	b, ok := presets[name]
	if !ok {
		return nil, names.Unknown("topo: preset", name, Presets())
	}
	return b(), nil
}
