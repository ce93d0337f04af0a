package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bnff/internal/layers"
	"bnff/internal/tensor"
)

// Text serialization of graphs — one line per node — so restructured models
// can be saved, diffed, and reloaded by tools:
//
//	bnffgraph 1
//	name densenet121
//	node 0 Input input out=120,3,224,224 cpl=-1
//	node 1 Conv stem.conv out=120,64,112,112 cpl=-1 in=0 conv=3:64:7x7:2:3:1
//	node 5 BNReLUConv b1.conv out=... cpl=0 in=1 conv=... bn=64:b1.bn:1:0 statsfrom=1
//	output 42
//
// Node names must not contain whitespace (every builder in this repository
// follows that convention).

const serializeMagic = "bnffgraph 1"

// Serialize writes the live graph to w. The graph must be normalized
// (IDs == positions), which every builder and pass guarantees.
func (g *Graph) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, serializeMagic)
	fmt.Fprintf(bw, "name %s\n", g.Name)
	live := g.Live()
	index := make(map[*Node]int, len(live))
	for i, n := range live {
		index[n] = i
	}
	for i, n := range live {
		if strings.ContainsAny(n.Name, " \t\n") {
			return fmt.Errorf("graph: node name %q contains whitespace", n.Name)
		}
		fmt.Fprintf(bw, "node %d %s %s out=%s cpl=%d", i, n.Kind, n.Name, intList(n.OutShape), n.CPL)
		if len(n.Inputs) > 0 {
			ids := make([]int, len(n.Inputs))
			for j, in := range n.Inputs {
				id, ok := index[in]
				if !ok {
					return fmt.Errorf("graph: node %q consumes unserialized node %q", n.Name, in.Name)
				}
				ids[j] = id
			}
			fmt.Fprintf(bw, " in=%s", intList(ids))
		}
		if n.Conv != nil {
			c := n.Conv
			fmt.Fprintf(bw, " conv=%d:%d:%dx%d:%d:%d:%d",
				c.InChannels, c.OutChannels, c.KernelH, c.KernelW, c.Stride, c.Pad, c.Groups)
		}
		if n.FoldedBias {
			fmt.Fprintf(bw, " bias=1")
		}
		if n.Pool != nil {
			p := n.Pool
			mode := "avg"
			if p.Max {
				mode = "max"
			}
			fmt.Fprintf(bw, " pool=%d:%d:%d:%s", p.Kernel, p.Stride, p.Pad, mode)
		}
		if n.FC != nil {
			fmt.Fprintf(bw, " fc=%d:%d", n.FC.In, n.FC.Out)
		}
		if n.Dropout != nil {
			fmt.Fprintf(bw, " drop=%g", n.Dropout.Rate)
		}
		if n.BN != nil {
			fmt.Fprintf(bw, " bn=%s", bnAttrString(n.BN))
		}
		if n.StatsOut != nil {
			fmt.Fprintf(bw, " statsout=%s", bnAttrString(n.StatsOut))
		}
		if n.StatsFrom != nil {
			id, ok := index[n.StatsFrom]
			if !ok {
				return fmt.Errorf("graph: node %q references unserialized statistics source", n.Name)
			}
			fmt.Fprintf(bw, " statsfrom=%d", id)
		}
		fmt.Fprintln(bw)
	}
	if g.Output != nil {
		id, ok := index[g.Output]
		if !ok {
			return fmt.Errorf("graph: output node is not live")
		}
		fmt.Fprintf(bw, "output %d\n", id)
	}
	return bw.Flush()
}

func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func bnAttrString(a *BNAttr) string {
	return fmt.Sprintf("%d:%s:%s:%s", a.Channels, a.ParamName, boolBit(a.MVF), boolBit(a.ICF))
}

func boolBit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// Parse reads a graph previously written by Serialize and validates it.
func Parse(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() || sc.Text() != serializeMagic {
		return nil, fmt.Errorf("graph: bad or missing header (want %q)", serializeMagic)
	}
	if !sc.Scan() || !strings.HasPrefix(sc.Text(), "name ") {
		return nil, fmt.Errorf("graph: missing name line")
	}
	g := New(strings.TrimPrefix(sc.Text(), "name "))

	type pending struct {
		node      *Node
		statsFrom int
	}
	var deferred []pending
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			n, statsFrom, err := parseNode(g, fields[1:])
			if err != nil {
				return nil, err
			}
			if len(g.Nodes) != n.ID {
				return nil, fmt.Errorf("graph: node %d out of order (have %d nodes)", n.ID, len(g.Nodes))
			}
			g.AddNode(n)
			if statsFrom >= 0 {
				deferred = append(deferred, pending{n, statsFrom})
			}
		case "output":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: malformed output line %q", line)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= len(g.Nodes) {
				return nil, fmt.Errorf("graph: bad output id %q", fields[1])
			}
			g.Output = g.Nodes[id]
		default:
			return nil, fmt.Errorf("graph: unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, p := range deferred {
		if p.statsFrom >= len(g.Nodes) {
			return nil, fmt.Errorf("graph: node %q references statsfrom %d beyond graph", p.node.Name, p.statsFrom)
		}
		p.node.StatsFrom = g.Nodes[p.statsFrom]
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: parsed graph invalid: %w", err)
	}
	return g, nil
}

func parseNode(g *Graph, fields []string) (*Node, int, error) {
	if len(fields) < 4 {
		return nil, 0, fmt.Errorf("graph: malformed node line %v", fields)
	}
	id, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, 0, fmt.Errorf("graph: bad node id %q", fields[0])
	}
	kind, err := kindFromString(fields[1])
	if err != nil {
		return nil, 0, err
	}
	n := &Node{ID: id, Kind: kind, Name: fields[2], CPL: -1}
	statsFrom := -1
	for _, f := range fields[3:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return nil, 0, fmt.Errorf("graph: malformed attribute %q on node %q", f, n.Name)
		}
		switch key {
		case "out":
			dims, err := parseIntList(val)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: node %q shape: %w", n.Name, err)
			}
			n.OutShape = tensor.Shape(dims)
		case "cpl":
			if n.CPL, err = strconv.Atoi(val); err != nil {
				return nil, 0, fmt.Errorf("graph: node %q cpl: %w", n.Name, err)
			}
		case "in":
			ids, err := parseIntList(val)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: node %q inputs: %w", n.Name, err)
			}
			for _, inID := range ids {
				if inID < 0 || inID >= len(g.Nodes) {
					return nil, 0, fmt.Errorf("graph: node %q input %d undefined", n.Name, inID)
				}
				n.Inputs = append(n.Inputs, g.Nodes[inID])
			}
		case "conv":
			c, err := parseConv(val)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: node %q: %w", n.Name, err)
			}
			n.Conv = c
		case "pool":
			p, err := parsePool(val)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: node %q: %w", n.Name, err)
			}
			n.Pool = p
		case "fc":
			var in, out int
			if _, err := fmt.Sscanf(val, "%d:%d", &in, &out); err != nil {
				return nil, 0, fmt.Errorf("graph: node %q fc spec %q", n.Name, val)
			}
			n.FC = &layers.FC{In: in, Out: out}
		case "drop":
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: node %q drop rate %q", n.Name, val)
			}
			n.Dropout = &layers.Dropout{Rate: rate}
		case "bn":
			a, err := parseBNAttr(val)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: node %q: %w", n.Name, err)
			}
			n.BN = a
		case "statsout":
			a, err := parseBNAttr(val)
			if err != nil {
				return nil, 0, fmt.Errorf("graph: node %q: %w", n.Name, err)
			}
			n.StatsOut = a
		case "bias":
			bit, err := strconv.Atoi(val)
			if err != nil || (bit != 0 && bit != 1) {
				return nil, 0, fmt.Errorf("graph: node %q bias flag %q", n.Name, val)
			}
			n.FoldedBias = bit == 1
		case "statsfrom":
			if statsFrom, err = strconv.Atoi(val); err != nil || statsFrom < 0 {
				return nil, 0, fmt.Errorf("graph: node %q statsfrom %q", n.Name, val)
			}
		default:
			return nil, 0, fmt.Errorf("graph: unknown attribute %q on node %q", key, n.Name)
		}
	}
	if n.OutShape == nil {
		return nil, 0, fmt.Errorf("graph: node %q has no shape", n.Name)
	}
	return n, statsFrom, nil
}

func kindFromString(s string) (OpKind, error) {
	for k := OpKind(0); k < opKindCount; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("graph: unknown op kind %q", s)
}

func parseIntList(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", p)
		}
		out[i] = v
	}
	return out, nil
}

func parseConv(s string) (*layers.Conv2D, error) {
	var c layers.Conv2D
	if _, err := fmt.Sscanf(s, "%d:%d:%dx%d:%d:%d:%d",
		&c.InChannels, &c.OutChannels, &c.KernelH, &c.KernelW, &c.Stride, &c.Pad, &c.Groups); err != nil {
		return nil, fmt.Errorf("bad conv spec %q", s)
	}
	return &c, nil
}

func parsePool(s string) (*layers.Pool2D, error) {
	var p layers.Pool2D
	var mode string
	if _, err := fmt.Sscanf(s, "%d:%d:%d:%s", &p.Kernel, &p.Stride, &p.Pad, &mode); err != nil {
		return nil, fmt.Errorf("bad pool spec %q", s)
	}
	switch mode {
	case "max":
		p.Max = true
	case "avg":
	default:
		return nil, fmt.Errorf("bad pool mode %q", mode)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

func parseBNAttr(s string) (*BNAttr, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("bad bn spec %q", s)
	}
	channels, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad bn channels %q", parts[0])
	}
	mvf, err1 := strconv.Atoi(parts[2])
	icf, err2 := strconv.Atoi(parts[3])
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("bad bn flags in %q", s)
	}
	return &BNAttr{Channels: channels, ParamName: parts[1], MVF: mvf == 1, ICF: icf == 1}, nil
}
