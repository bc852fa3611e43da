// Dnntraining: data-parallel DNN training across the 4-GPU node — the
// multi-GPU-framework scenario of the paper's evaluation (VGG16, LENET,
// RESNET18). The backward passes synchronize weight gradients across
// GPUs, saturating the inter-cluster link; the example compares the
// baseline against NetCrafter and prints the per-model speedups.
package main

import (
	"fmt"
	"log"

	"netcrafter"
)

func main() {
	models := []string{"LENET", "VGG16", "RNET18"}
	sc := netcrafter.Small()

	fmt.Println("data-parallel training on 2 clusters x 2 GPUs (128 vs 16 GB/s):")
	for _, m := range models {
		base, err := netcrafter.Run(netcrafter.Baseline(), m, sc)
		if err != nil {
			log.Fatal(err)
		}
		nc, err := netcrafter.Run(netcrafter.WithNetCrafter(), m, sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s baseline=%9d cy (link %3.0f%% busy)  netcrafter=%9d cy  speedup=%.2fx  stitched=%.0f%%\n",
			m, base.Cycles, 100*base.InterUtilization, nc.Cycles,
			nc.Speedup(base), 100*nc.Net.StitchRate())
	}

	// A what-if: would a faster inter-cluster link help more than
	// NetCrafter? Compare against a hardware upgrade to 32 GB/s.
	node, err := netcrafter.PaperTopology(4, 2, 128, 32, 16)
	if err != nil {
		log.Fatal(err)
	}
	fast := netcrafter.Baseline().WithTopology(node)
	base, err := netcrafter.Run(netcrafter.Baseline(), "VGG16", sc)
	if err != nil {
		log.Fatal(err)
	}
	up, err := netcrafter.Run(fast, "VGG16", sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nVGG16 alternatives: 2x link bandwidth = %.2fx speedup vs NetCrafter in software/switch only\n",
		up.Speedup(base))
}
