package core

import (
	"testing"

	"netcrafter/internal/flit"
	"netcrafter/internal/sim"
)

// benchController measures one detached controller moving a mixed
// packet train (a read response, a trim-eligible read response, a
// write response and a page-table request to each of three remote
// clusters) from intake to the wire, per train.
func benchController(b *testing.B, cfg Config) {
	c := NewController("ctl", 0, 3, cfg)
	now := sim.Cycle(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for dst := flit.ClusterID(1); dst <= 3; dst++ {
			trim := pkt(flit.ReadRsp, dst)
			trim.TrimEligible = true
			injectAll(c, flit.Segment(pkt(flit.ReadRsp, dst), 16), now)
			injectAll(c, flit.Segment(trim, 16), now)
			injectAll(c, flit.Segment(pkt(flit.WriteRsp, dst), 16), now)
			injectAll(c, flit.Segment(pkt(flit.PTReq, dst), 16), now)
		}
		driveOut(c, &now)
	}
}

func BenchmarkControllerPassthrough(b *testing.B) { benchController(b, Passthrough()) }

func BenchmarkControllerNetCrafter(b *testing.B) { benchController(b, Baseline()) }
