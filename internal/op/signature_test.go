package op_test

import (
	"fmt"
	"strings"
	"testing"

	"opsched/internal/graph"
	"opsched/internal/nn"
	"opsched/internal/op"
)

// fmtSignature is Op.Signature as it was first written, through fmt: the
// byte-for-byte reference the strconv rendering must reproduce, since the
// runtime's profile keys and the cost model's shape hash both read it.
func fmtSignature(o *op.Op) string {
	dims := func(d op.Dims) string {
		if len(d) == 0 {
			return "()"
		}
		var b strings.Builder
		b.WriteByte('(')
		for i, v := range d {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte(')')
		return b.String()
	}
	s := string(o.Kind) + dims(o.Input)
	if len(o.Filter) > 0 {
		s += dims(o.Filter)
	}
	if o.Stride > 1 {
		s += fmt.Sprintf("/s%d", o.Stride)
	}
	if o.NumInputs > 2 {
		s += fmt.Sprintf("/n%d", o.NumInputs)
	}
	return s
}

// TestSignatureMatchesFmt: every op of every training graph and of every
// inference graph (at the batch sizes dynamic batching produces) renders
// the same signature as the fmt form.
func TestSignatureMatchesFmt(t *testing.T) {
	var graphs []*graph.Graph
	for _, name := range nn.Names() {
		graphs = append(graphs, nn.MustBuild(name).Graph)
		for _, batch := range []int{1, 2, 3, 8} {
			graphs = append(graphs, nn.MustBuildInference(name, batch).Graph)
		}
	}
	ops := 0
	for _, g := range graphs {
		for _, n := range g.Nodes() {
			o := n.Op
			if got, want := o.Signature(), fmtSignature(o); got != want {
				t.Fatalf("%s node %s: signature %q, fmt form %q", g.Name, n.Name, got, want)
			}
			ops++
		}
	}
	if ops == 0 {
		t.Fatal("no ops visited")
	}
}
