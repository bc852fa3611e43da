// Scaling: the question the paper's introduction poses — does taming
// the slow inter-cluster tier keep paying as the GPU complex grows?
// This example runs the same workload on 2-cluster (4 GPU) and
// 4-cluster (8 GPU) nodes, baseline vs NetCrafter, using the topology
// extension (clusters beyond two hang off a central inter-cluster
// switch).
package main

import (
	"fmt"
	"log"

	"netcrafter"
)

func main() {
	sc := netcrafter.Small()
	const wl = "SPMV"

	fmt.Printf("%s across node sizes:\n", wl)
	fmt.Printf("%10s %8s %12s %12s %9s %9s\n",
		"clusters", "gpus", "baseline", "netcrafter", "speedup", "link-busy")
	for _, clusters := range []int{2, 4} {
		gpus := 2 * clusters
		node, err := netcrafter.PaperTopology(gpus, clusters, 128, 16, 16)
		if err != nil {
			log.Fatal(err)
		}
		base := netcrafter.Baseline().WithTopology(node)
		nc := netcrafter.WithNetCrafter().WithTopology(node)

		rb, err := netcrafter.Run(base, wl, sc)
		if err != nil {
			log.Fatal(err)
		}
		rn, err := netcrafter.Run(nc, wl, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10d %8d %12d %12d %8.2fx %8.0f%%\n",
			clusters, gpus, rb.Cycles, rn.Cycles,
			rn.Speedup(rb), 100*rb.InterUtilization)
	}

	fmt.Println("\nwith more clusters sharing the slow tier, a larger share of")
	fmt.Println("accesses crosses it — exactly where Stitching/Trimming/Sequencing act.")
}
