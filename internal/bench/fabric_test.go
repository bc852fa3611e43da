package bench

import (
	"fmt"
	"testing"

	"netcrafter/internal/cluster"
	"netcrafter/internal/topo"
)

// TestConfigFabrics pins every fabric the experiments build to the
// FrontierNode graph with the flit rates the paper's GB/s give at the
// configuration's flit size: 128:16 GB/s is 8:1 flits/cycle at 16-byte
// flits and 16:2 at 8-byte flits.
func TestConfigFabrics(t *testing.T) {
	type fabricCase struct {
		label                        string
		cfg                          cluster.Config
		gpus, clusters, intra, inter int
	}
	cases := []fabricCase{
		{"baseline", cluster.Baseline(), 4, 2, 8, 1},
		{"netcrafter", cluster.WithNetCrafter(), 4, 2, 8, 1},
		{"ideal", cluster.Ideal(), 4, 2, 8, 8},
		{"fig21/baseline/8B", withFlitSize(cluster.Baseline(), 8), 4, 2, 16, 2},
		{"fig21/stitch/8B", withFlitSize(stitchPool(32, true), 8), 4, 2, 16, 2},
		{"fig21/baseline/16B", withFlitSize(cluster.Baseline(), 16), 4, 2, 8, 1},
	}
	fig22Rates := [][2]int{{8, 1}, {8, 2}, {8, 4}, {16, 2}, {32, 4}, {2, 2}}
	if len(fig22Rates) != len(fig22Cases) {
		t.Fatalf("%d fig22 cases, %d expected rates", len(fig22Cases), len(fig22Rates))
	}
	for i, cfg := range fig22Configs() {
		cs, r := fig22Cases[i/2], fig22Rates[i/2]
		cases = append(cases, fabricCase{fmt.Sprintf("fig22/%d:%d/%d", cs[0], cs[1], i%2), cfg, 4, 2, r[0], r[1]})
	}
	for i, cfg := range extScalingConfigs() {
		n := extScalingCounts[i/2]
		cases = append(cases, fabricCase{fmt.Sprintf("ext-scaling/%d/%d", n, i%2), cfg, 2 * n, n, 8, 1})
	}
	if len(cases) != 6+12+4 {
		t.Fatalf("%d fabric cases, want 22", len(cases))
	}
	for _, tc := range cases {
		want := topo.FrontierNode(tc.gpus, tc.clusters, tc.intra, tc.inter, 1).DOT()
		if got := tc.cfg.Topo.DOT(); got != want {
			t.Errorf("%s: fabric\n%s\nwant\n%s", tc.label, got, want)
		}
	}
}
