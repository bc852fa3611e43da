package topo

import (
	"reflect"
	"testing"
)

// backboneChain is a 2-cluster fabric whose clusters join through two
// backbone switches in series — every cross-cluster path is 3+ switches
// long (sw0 -> bb0 -> bb1 -> sw1).
func backboneChain() *Graph {
	return &Graph{
		Name: "backbone-chain",
		Devices: []Device{
			{Name: "gpu0", Cluster: 0}, {Name: "gpu1", Cluster: 0},
			{Name: "gpu2", Cluster: 1}, {Name: "gpu3", Cluster: 1},
		},
		Switches: []Switch{
			{Name: "sw0", Cluster: 0}, {Name: "sw1", Cluster: 1},
			{Name: "bb0", Cluster: Backbone}, {Name: "bb1", Cluster: Backbone},
		},
		Links: []Link{
			{A: "gpu0", B: "sw0", BW: 8, Latency: 1},
			{A: "gpu1", B: "sw0", BW: 8, Latency: 1},
			{A: "gpu2", B: "sw1", BW: 8, Latency: 1},
			{A: "gpu3", B: "sw1", BW: 8, Latency: 1},
			{A: "sw0", B: "bb0", BW: 1, Latency: 1},
			{A: "bb0", B: "bb1", BW: 1, Latency: 1},
			{A: "bb1", B: "sw1", BW: 1, Latency: 1},
		},
	}
}

func TestRoutesChain(t *testing.T) {
	hops := hopMap(t, backboneChain())
	for _, tc := range []struct{ sw, dev, want string }{
		{"sw0", "gpu0", "gpu0"}, // local delivery
		{"sw0", "gpu3", "bb0"},  // cross-cluster: into the backbone
		{"bb0", "gpu3", "bb1"},  // transit along the backbone
		{"bb1", "gpu0", "bb0"},  // and back the other way
		{"sw1", "gpu1", "bb1"},
	} {
		if got := hops[tc.sw][tc.dev]; got != tc.want {
			t.Errorf("hops[%s][%s] = %q, want %q", tc.sw, tc.dev, got, tc.want)
		}
	}
}

func TestRoutesRingTieBreak(t *testing.T) {
	// 4-cluster ring with one GPU per cluster: from sw0, gpu2 (the
	// opposite cluster) is 2 switch hops away both ways. The stable
	// tie-break must pick the earliest-declared link's neighbor — the
	// ring is declared sw0-sw1, sw1-sw2, sw2-sw3, sw3-sw0, so sw0's
	// adjacency lists sw1 before sw3.
	hops := hopMap(t, Ring(4, 1, 8, 1, 1))
	if got := hops["sw0"]["gpu2"]; got != "sw1" {
		t.Fatalf("tie-break picked %q, want sw1 (earliest-declared link)", got)
	}
	// Neighbors route the short way round.
	if got := hops["sw0"]["gpu1"]; got != "sw1" {
		t.Fatalf("hops[sw0][gpu1] = %q", got)
	}
	if got := hops["sw0"]["gpu3"]; got != "sw3" {
		t.Fatalf("hops[sw0][gpu3] = %q", got)
	}
}

func TestRoutesDeterministic(t *testing.T) {
	a := hopMap(t, Ring(6, 2, 8, 1, 1))
	b := hopMap(t, Ring(6, 2, 8, 1, 1))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical graphs routed differently")
	}
}

func TestRoutesRejectsInvalidGraph(t *testing.T) {
	g := chain()
	g.Links = g.Links[:2] // disconnect the clusters
	if _, err := g.Routes(); err == nil {
		t.Fatal("routing accepted a disconnected graph")
	}
}
