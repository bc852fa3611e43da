package bench

import (
	"fmt"
	"strings"

	"netcrafter/internal/cluster"
	"netcrafter/internal/flit"
	"netcrafter/internal/lasp"
	"netcrafter/internal/stats"
	"netcrafter/internal/workload"
)

// statsGeoMean aliases stats.GeoMean for the experiments file.
var statsGeoMean = stats.GeoMean

func init() {
	register(Experiment{ID: "table1", Title: "Flit categorization by type and size", Fidelity: FidelityCycle, Run: table1})
	register(Experiment{ID: "table2", Title: "Baseline multi-GPU configuration", Fidelity: FidelityCycle, Run: table2})
	register(Experiment{ID: "table3", Title: "Evaluated applications", Fidelity: FidelityCycle, Run: table3})
}

// table1 regenerates Table 1 from the packet model.
func table1(opt Options) (*Report, error) {
	rep := &Report{ID: "table1", Title: "16B flit categorization",
		Columns: []string{"occupied", "required", "padded", "flits"},
		Notes:   "must match Table 1 exactly: ReadReq 16/12/4/1, WriteReq 80/76/4/5, ReadRsp 80/68/12/5, WriteRsp 16/4/12/1, PT* 16/12/4/1"}
	for _, row := range flit.Table1(flit.DefaultFlitBytes) {
		rep.AddRow(row.Type.String(),
			float64(row.BytesOccupied), float64(row.BytesRequired),
			float64(row.BytesPadded), float64(row.FlitsOccupied))
	}
	return rep, nil
}

// table2 reports the baseline configuration as a parameter dump; the
// Notes carry the textual parameters.
func table2(opt Options) (*Report, error) {
	c := cluster.Baseline()
	g := c.GPU.WithDefaults()
	gpus := len(c.Topo.Devices)
	var intraGBps, interGBps int
	for _, l := range c.Topo.Links {
		if gbps := l.BW * c.NetCrafter.FlitBytes; c.Topo.Boundary(l) {
			interGBps = gbps
		} else {
			intraGBps = gbps
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "GPUs=%d clusters=%d intra=%dGB/s inter=%dGB/s | ", gpus, c.Topo.NumClusters(), intraGBps, interGBps)
	fmt.Fprintf(&b, "CU=%d/GPU waveslots=%d | L1=%dKB %d-way %dB-sector %d MSHR, %dcy | ",
		g.NumCUs, g.WavefrontSlots, g.L1.SizeBytes>>10, g.L1.Ways, g.L1.SectorBytes, g.L1.MSHRs, g.L1Latency)
	fmt.Fprintf(&b, "L2=%d banks x %dKB %d-way, %dcy | DRAM %dB/cy %dcy | ",
		g.L2Banks, g.L2Bank.SizeBytes>>10, g.L2Bank.Ways, g.L2Latency, g.DRAM.BytesPerCycle, g.DRAM.Latency)
	fmt.Fprintf(&b, "L1TLB=%d L2TLB=%d PWC=%d walkers=%d | switch %dcy/%d entries | CQ=%d",
		g.L1TLB.Entries, g.L2TLB.Entries, g.GMMU.PWCEntries, g.GMMU.Walkers,
		c.Switch.ProcessingLatency, c.Switch.BufferEntries, c.NetCrafter.CQEntries)
	rep := &Report{ID: "table2", Title: "Baseline configuration",
		Columns: []string{"value"},
		Notes:   b.String()}
	rep.AddRow("gpus", float64(gpus))
	rep.AddRow("intraGBps", float64(intraGBps))
	rep.AddRow("interGBps", float64(interGBps))
	rep.AddRow("cusPerGPU", float64(g.NumCUs))
	rep.AddRow("l2tlb", float64(g.L2TLB.Entries))
	rep.AddRow("walkers", float64(g.GMMU.Walkers))
	return rep, nil
}

// table3 lists the workload suite with its LASP locality estimate.
func table3(opt Options) (*Report, error) {
	rep := &Report{ID: "table3", Title: "Evaluated applications (local-page share under LASP)",
		Columns: []string{"kernels", "wavefronts", "local-share"},
		Notes:   "15 workloads spanning random/gather/scatter/adjacent/partitioned patterns plus 3 DNNs"}
	for _, name := range workload.Names() {
		s, err := workload.ByName(name, opt.Scale)
		if err != nil {
			return nil, err
		}
		rep.AddRow(name, float64(len(s.Kernels)), float64(s.TotalWavefronts()), lasp.LocalShare(s, 4))
	}
	return rep, nil
}
