package topo

import "testing"

// FuzzTopoParse drives the spec parser with arbitrary bytes: Parse must
// return a graph or an error, never panic, and anything it accepts must
// survive the rest of the pipeline (validation invariants, routing,
// DOT rendering).
func FuzzTopoParse(f *testing.F) {
	// A valid spec, then one seed per malformation family.
	f.Add([]byte(`{
	  "name": "ok",
	  "devices": [{"name": "gpu0", "cluster": 0}, {"name": "gpu1", "cluster": 1}],
	  "switches": [{"name": "sw0", "cluster": 0}, {"name": "sw1", "cluster": 1}],
	  "links": [
	    {"a": "gpu0", "b": "sw0", "bw": 8},
	    {"a": "gpu1", "b": "sw1", "bw": 8},
	    {"a": "sw0", "b": "sw1", "bw": 1, "bw_back": 2, "latency": 3}
	  ]
	}`))
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"devices": "nope"}`))
	f.Add([]byte(`{"name": "x"} trailing`))
	f.Add([]byte(`{"unknown_field": 1}`))
	// Dangling link endpoint.
	f.Add([]byte(`{"devices":[{"name":"g","cluster":0}],"switches":[{"name":"s","cluster":0}],"links":[{"a":"g","b":"ghost","bw":8}]}`))
	// Self-loop ("cycle" on a single node).
	f.Add([]byte(`{"devices":[{"name":"g","cluster":0}],"switches":[{"name":"s","cluster":0}],"links":[{"a":"s","b":"s","bw":8},{"a":"g","b":"s","bw":8}]}`))
	// Parallel links.
	f.Add([]byte(`{"devices":[{"name":"g","cluster":0}],"switches":[{"name":"s","cluster":0}],"links":[{"a":"g","b":"s","bw":8},{"a":"s","b":"g","bw":8}]}`))
	// Duplicate names, negative cluster, absurd bandwidth.
	f.Add([]byte(`{"devices":[{"name":"x","cluster":0},{"name":"x","cluster":0}],"switches":[{"name":"s","cluster":0}],"links":[{"a":"x","b":"s","bw":8}]}`))
	f.Add([]byte(`{"devices":[{"name":"g","cluster":-5}],"switches":[{"name":"s","cluster":-5}],"links":[{"a":"g","b":"s","bw":8}]}`))
	f.Add([]byte(`{"devices":[{"name":"g","cluster":0}],"switches":[{"name":"s","cluster":0}],"links":[{"a":"g","b":"s","bw":999999999}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(data)
		if err != nil {
			if g != nil {
				t.Fatal("Parse returned both a graph and an error")
			}
			return
		}
		// Whatever Parse accepts must be fully usable downstream.
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph fails validation: %v", err)
		}
		if _, err := g.Routes(); err != nil {
			t.Fatalf("parsed graph fails routing: %v", err)
		}
		// Routing on an accepted graph must be loop-free: every next
		// hop strictly decreases the distance to the destination.
		checkRoutingSound(t, g)
		if _, err := g.ControllerPlacement(); err != nil {
			t.Fatalf("parsed graph fails placement: %v", err)
		}
		if g.DOT() == "" {
			t.Fatal("empty DOT rendering")
		}
	})
}
