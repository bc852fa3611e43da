// Sweep: a design-space exploration using the public API — the Fig 18/19
// pooling-window study on one workload, plus the Fig 22 bandwidth
// sensitivity, produced directly with Run rather than the bench
// harness. Shows how to build custom studies on top of the simulator.
package main

import (
	"fmt"
	"log"

	"netcrafter"
)

func run(cfg netcrafter.Config, wl string, sc netcrafter.Scale) *netcrafter.Result {
	r, err := netcrafter.Run(cfg, wl, sc)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	sc := netcrafter.Small()
	const wl = "SPMV"

	base := run(netcrafter.Baseline(), wl, sc)
	fmt.Printf("%s baseline: %d cycles, inter-link %.0f%% busy\n\n", wl, base.Cycles, 100*base.InterUtilization)

	fmt.Println("pooling window sweep (stitching enabled):")
	fmt.Printf("%8s %12s %12s %10s\n", "window", "plain", "selective", "stitch%")
	for _, w := range []netcrafter.Cycle{0, 32, 64, 96, 128} {
		plain := netcrafter.Baseline()
		plain.NetCrafter.EnableStitch = true
		plain.NetCrafter.PoolingCycles = w
		sel := plain
		sel.NetCrafter.SelectivePooling = true
		rp := run(plain, wl, sc)
		rs := run(sel, wl, sc)
		fmt.Printf("%8d %11.2fx %11.2fx %9.0f%%\n",
			w, rp.Speedup(base), rs.Speedup(base), 100*rs.Net.StitchRate())
	}

	fmt.Println("\nbandwidth sensitivity (full NetCrafter):")
	fmt.Printf("%12s %12s\n", "intra:inter", "speedup")
	for _, bw := range [][2]int{{128, 16}, {128, 32}, {128, 64}, {256, 32}, {512, 64}, {32, 32}} {
		node, err := netcrafter.PaperTopology(4, 2, bw[0], bw[1], 16)
		if err != nil {
			log.Fatal(err)
		}
		b := netcrafter.Baseline().WithTopology(node)
		n := netcrafter.WithNetCrafter().WithTopology(node)
		rb := run(b, wl, sc)
		rn := run(n, wl, sc)
		fmt.Printf("%9d:%-3d %11.2fx\n", bw[0], bw[1], rn.Speedup(rb))
	}
}
