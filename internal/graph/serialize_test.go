package graph

import (
	"bytes"
	"strings"
	"testing"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// structurallyEqual compares two graphs node by node.
func structurallyEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	la, lb := a.Live(), b.Live()
	if len(la) != len(lb) {
		t.Fatalf("node counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		x, y := la[i], lb[i]
		if x.Kind != y.Kind || x.Name != y.Name || !x.OutShape.Equal(y.OutShape) || x.CPL != y.CPL {
			t.Fatalf("node %d differs: %v %q %v %d vs %v %q %v %d",
				i, x.Kind, x.Name, x.OutShape, x.CPL, y.Kind, y.Name, y.OutShape, y.CPL)
		}
		if len(x.Inputs) != len(y.Inputs) {
			t.Fatalf("node %q input counts differ", x.Name)
		}
		for j := range x.Inputs {
			if x.Inputs[j].Name != y.Inputs[j].Name {
				t.Fatalf("node %q input %d differs: %q vs %q", x.Name, j, x.Inputs[j].Name, y.Inputs[j].Name)
			}
		}
		if (x.Conv == nil) != (y.Conv == nil) || (x.Conv != nil && *x.Conv != *y.Conv) {
			t.Fatalf("node %q conv attrs differ", x.Name)
		}
		if (x.Pool == nil) != (y.Pool == nil) || (x.Pool != nil && *x.Pool != *y.Pool) {
			t.Fatalf("node %q pool attrs differ", x.Name)
		}
		if (x.FC == nil) != (y.FC == nil) || (x.FC != nil && *x.FC != *y.FC) {
			t.Fatalf("node %q fc attrs differ", x.Name)
		}
		if (x.BN == nil) != (y.BN == nil) || (x.BN != nil && *x.BN != *y.BN) {
			t.Fatalf("node %q bn attrs differ", x.Name)
		}
		if (x.StatsOut == nil) != (y.StatsOut == nil) || (x.StatsOut != nil && *x.StatsOut != *y.StatsOut) {
			t.Fatalf("node %q statsout attrs differ", x.Name)
		}
		if (x.StatsFrom == nil) != (y.StatsFrom == nil) ||
			(x.StatsFrom != nil && x.StatsFrom.Name != y.StatsFrom.Name) {
			t.Fatalf("node %q statsfrom differs", x.Name)
		}
	}
	if (a.Output == nil) != (b.Output == nil) ||
		(a.Output != nil && a.Output.Name != b.Output.Name) {
		t.Fatal("outputs differ")
	}
}

func TestSerializeRoundTripChain(t *testing.T) {
	g, nodes := buildChain(t)
	g.Output = nodes[4]
	var buf bytes.Buffer
	if err := g.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	structurallyEqual(t, g, back)

	// Costs of the round-tripped graph must match exactly.
	c1, err := g.TrainingCosts()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := back.TrainingCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != len(c2) {
		t.Fatalf("cost counts differ: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i].FLOPs != c2[i].FLOPs || c1[i].TotalBytes() != c2[i].TotalBytes() {
			t.Fatalf("cost %d differs after round trip", i)
		}
	}
}

func TestSerializeRoundTripRestructured(t *testing.T) {
	// Build a mini restructured graph by hand (SubBN1, SubBN2, BNReLUConv,
	// StatsOut) to cover every serialized attribute.
	g := New("restructured")
	in := g.Input("in", tensor.Shape{4, 3, 8, 8})
	conv1 := &layers.Conv2D{InChannels: 3, OutChannels: 8, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1}
	c1, err := g.Conv("c1", in, *conv1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1.StatsOut = &BNAttr{Channels: 8, ParamName: "bn1", MVF: true}
	conv2 := &layers.Conv2D{InChannels: 8, OutChannels: 8, KernelH: 3, KernelW: 3, Stride: 1, Pad: 1, Groups: 8}
	frc := g.AddNode(&Node{Kind: OpBNReLUConv, Name: "fused", Inputs: []*Node{c1},
		OutShape: tensor.Shape{4, 8, 8, 8}, Conv: conv2,
		BN: &BNAttr{Channels: 8, ParamName: "bn1", MVF: true}, StatsFrom: c1, CPL: 0})
	s1 := g.AddNode(&Node{Kind: OpSubBN1, Name: "bn2.stats", Inputs: []*Node{frc},
		OutShape: tensor.Shape{4, 8, 8, 8}, BN: &BNAttr{Channels: 8, ParamName: "bn2", MVF: true, ICF: true}, CPL: 1})
	s2 := g.AddNode(&Node{Kind: OpSubBN2, Name: "bn2.norm", Inputs: []*Node{frc},
		OutShape: tensor.Shape{4, 8, 8, 8}, BN: &BNAttr{Channels: 8, ParamName: "bn2", MVF: true},
		StatsFrom: s1, CPL: 1})
	g.Output = s2
	if err := g.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := g.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	structurallyEqual(t, g, back)
}

func TestSerializeRejectsWhitespaceNames(t *testing.T) {
	g := New("bad")
	n := g.Input("has space", tensor.Shape{1, 1, 2, 2})
	g.Output = n
	if err := g.Serialize(&bytes.Buffer{}); err == nil {
		t.Error("accepted a node name with whitespace")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad header":         "nope\nname x\n",
		"missing name":       "bnffgraph 1\nnode 0 Input in out=1,1,2,2 cpl=-1\n",
		"unknown kind":       "bnffgraph 1\nname x\nnode 0 Warp in out=1,1,2,2 cpl=-1\n",
		"forward input ref":  "bnffgraph 1\nname x\nnode 0 ReLU r out=1,1,2,2 cpl=-1 in=1\n",
		"bad shape":          "bnffgraph 1\nname x\nnode 0 Input in out=1,z cpl=-1\n",
		"missing shape":      "bnffgraph 1\nname x\nnode 0 Input in cpl=-1\n",
		"unknown attr":       "bnffgraph 1\nname x\nnode 0 Input in out=1,1,2,2 cpl=-1 zap=3\n",
		"bad output":         "bnffgraph 1\nname x\nnode 0 Input in out=1,1,2,2 cpl=-1\noutput 9\n",
		"node out of order":  "bnffgraph 1\nname x\nnode 1 Input in out=1,1,2,2 cpl=-1\n",
		"unknown directive":  "bnffgraph 1\nname x\nfrobnicate\n",
		"bad conv spec":      "bnffgraph 1\nname x\nnode 0 Input in out=1,3,4,4 cpl=-1\nnode 1 Conv c out=1,4,4,4 cpl=-1 in=0 conv=3:4\n",
		"bad pool mode":      "bnffgraph 1\nname x\nnode 0 Input in out=1,3,4,4 cpl=-1\nnode 1 Pool p out=1,3,2,2 cpl=-1 in=0 pool=2:2:0:median\n",
		"pool pad past half": "bnffgraph 1\nname x\nnode 0 Input in out=1,3,4,4 cpl=-1\nnode 1 Pool p out=1,3,4,4 cpl=-1 in=0 pool=2:2:2:max\n",
		"bad bn spec":        "bnffgraph 1\nname x\nnode 0 Input in out=1,3,4,4 cpl=-1\nnode 1 BN b out=1,3,4,4 cpl=-1 in=0 bn=3:b\n",
		"statsfrom past end": "bnffgraph 1\nname x\nnode 0 Input in out=1,3,4,4 cpl=-1\nnode 1 SubBN2 s out=1,3,4,4 cpl=-1 in=0 bn=3:b:1:0 statsfrom=7\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Parse accepted invalid input", name)
		}
	}
}

func TestParseValidatesSemantics(t *testing.T) {
	// Structurally parseable but semantically invalid: SubBN2 whose
	// statsfrom is not a statistics producer.
	text := "bnffgraph 1\nname x\n" +
		"node 0 Input in out=1,3,4,4 cpl=-1\n" +
		"node 1 ReLU r out=1,3,4,4 cpl=-1 in=0\n" +
		"node 2 SubBN2 s out=1,3,4,4 cpl=-1 in=0 bn=3:b:1:0 statsfrom=1\n"
	if _, err := Parse(strings.NewReader(text)); err == nil {
		t.Error("Parse accepted SubBN2 with a non-statistics source")
	}
}
