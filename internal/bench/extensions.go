package bench

import (
	"fmt"

	"netcrafter/internal/cluster"
	"netcrafter/internal/flit"
	"netcrafter/internal/lasp"
)

// Extension experiments beyond the paper's figures: the write-mask
// trimming the paper sketches in its coherence discussion, and the
// cluster-count scaling study its introduction motivates.

func init() {
	register(Experiment{ID: "ext-trimwrites", Title: "Write-mask trimming extension vs the paper's read-only trimming", Fidelity: FidelityCycle, Run: extTrimWrites})
	register(Experiment{ID: "ext-scaling", Title: "NetCrafter speedup at 2 and 4 clusters", Fidelity: FidelityCycle, Run: extScaling})
}

// extTrimWrites compares the paper's design against the same design
// with write trimming enabled, reporting speedups over the baseline and
// the inter-cluster byte reduction.
func extTrimWrites(opt Options) (*Report, error) {
	tw := cluster.WithNetCrafter()
	tw.NetCrafter.TrimWrites = true
	rs, err := runSuites(opt, cluster.Baseline(), cluster.WithNetCrafter(), tw)
	if err != nil {
		return nil, err
	}
	base, paper, twRes := rs[0], rs[1], rs[2]
	rep := &Report{ID: "ext-trimwrites", Title: "Read-trim vs read+write-trim",
		Columns: []string{"netcrafter", "with-write-trim", "bytes-ratio"},
		Notes:   "extension: write-heavy sparse workloads gain additional byte savings"}
	for _, w := range opt.Workloads {
		br := 1.0
		if b := paper[w].Net.WireBytes.Value(); b > 0 {
			br = float64(twRes[w].Net.WireBytes.Value()) / float64(b)
		}
		rep.AddRow(w, speedup(base[w], paper[w]), speedup(base[w], twRes[w]), br)
	}
	rep.Mean()
	return rep, nil
}

// extScalingCounts are the cluster counts ext-scaling compares.
var extScalingCounts = []int{2, 4}

// extScalingConfigs returns the baseline and NetCrafter configurations
// of every ext-scaling count, in that order, on the paper node with 2
// GPUs per cluster.
func extScalingConfigs() []cluster.Config {
	cfgs := make([]cluster.Config, 0, 2*len(extScalingCounts))
	for _, clusters := range extScalingCounts {
		g := paperNode(clusters, cluster.PaperIntraGBps, cluster.PaperInterGBps, flit.DefaultFlitBytes)
		cfgs = append(cfgs, cluster.Baseline().WithTopology(g), cluster.WithNetCrafter().WithTopology(g))
	}
	return cfgs
}

// extScaling runs baseline vs NetCrafter at 2 and 4 clusters (4 and 8
// GPUs) to check the mechanisms keep paying as the hierarchy grows.
func extScaling(opt Options) (*Report, error) {
	rep := &Report{ID: "ext-scaling", Title: "NetCrafter speedup by cluster count (GMEAN over workloads)",
		Columns: []string{"netcrafter-speedup", "baseline-util"},
		Notes:   "extension: gains persist (or grow) as more clusters share the slow tier"}
	rs, err := runSuites(opt, extScalingConfigs()...)
	if err != nil {
		return nil, err
	}
	for i, clusters := range extScalingCounts {
		bres, nres := rs[2*i], rs[2*i+1]
		sp := make([]float64, 0, len(opt.Workloads))
		util := 0.0
		for _, w := range opt.Workloads {
			sp = append(sp, speedup(bres[w], nres[w]))
			util += bres[w].InterUtilization
		}
		rep.AddRow(fmt.Sprintf("%d-clusters", clusters), geoMean(sp), util/float64(len(opt.Workloads)))
	}
	return rep, nil
}

func init() {
	register(Experiment{ID: "ext-placement", Title: "LASP placement vs pattern-blind round-robin", Fidelity: FidelityCycle, Run: extPlacement})
}

// extPlacement validates the paper's Section-5.1 claim that LASP gives
// an unbiased (well-mapped) baseline: pattern-blind round-robin
// placement must not beat it.
func extPlacement(opt Options) (*Report, error) {
	rr := cluster.Baseline()
	rr.Placement = lasp.PolicyRoundRobin
	rs, err := runSuites(opt, cluster.Baseline(), rr)
	if err != nil {
		return nil, err
	}
	laspRes, rrRes := rs[0], rs[1]
	rep := &Report{ID: "ext-placement", Title: "Round-robin placement slowdown vs LASP",
		Columns: []string{"roundrobin-vs-lasp", "lasp-util", "rr-util"},
		Notes:   "extension: LASP should win (ratio <= 1) on partitioned workloads by keeping accesses local"}
	for _, w := range opt.Workloads {
		rep.AddRow(w, speedup(laspRes[w], rrRes[w]), laspRes[w].InterUtilization, rrRes[w].InterUtilization)
	}
	rep.Mean()
	return rep, nil
}
