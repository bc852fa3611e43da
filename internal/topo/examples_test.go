package topo

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestExampleSpecs keeps examples/topologies/ honest: every shipped
// spec must parse, validate and route.
func TestExampleSpecs(t *testing.T) {
	files, err := filepath.Glob("../../examples/topologies/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("only %d example specs, want at least 3", len(files))
	}
	for _, f := range files {
		g, err := ParseFile(f)
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if _, err := g.Routes(); err != nil {
			t.Errorf("%s: routing: %v", f, err)
		}
	}
}

// TestExampleSeedSpecMatchesBuilder pins frontier-4gpu.json to the
// builder the default configuration uses, so the shipped example keeps
// describing the exact seed system.
func TestExampleSeedSpecMatchesBuilder(t *testing.T) {
	g, err := ParseFile("../../examples/topologies/frontier-4gpu.json")
	if err != nil {
		t.Fatal(err)
	}
	want := FrontierNode(4, 2, 8, 1, 1)
	want.Name = g.Name // names differ; structure must not
	if !reflect.DeepEqual(g, want) {
		t.Fatalf("spec drifted from FrontierNode(4,2,8,1,1):\n got %+v\nwant %+v", g, want)
	}
}

func TestExampleAsymSpec(t *testing.T) {
	g, err := ParseFile("../../examples/topologies/asym-4gpu.json")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, l := range g.Links {
		if g.Boundary(l) {
			found = true
			if l.RateAB() != 2 || l.RateBA() != 1 || l.Latency != 4 {
				t.Fatalf("boundary link %+v lost its asymmetry", l)
			}
		}
	}
	if !found {
		t.Fatal("no boundary link in asym example")
	}
}

func TestLoadResolvesPresetAndFile(t *testing.T) {
	if _, err := Load("frontier-8x4"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("../../examples/topologies/frontier-4gpu.json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("definitely-not-a-preset-or-file"); err == nil {
		t.Fatal("bogus -topo argument accepted")
	}
}
