// Package op defines the catalog of dataflow operations that appear in the
// paper's four NN training workloads, and derives for each operation
// instance the machine-independent cost description (hw.OpCost) that the
// KNL model turns into execution time.
//
// Operations are identified by Kind (Conv2D, MatMul, BiasAdd, ...) and an
// instance is a Kind plus concrete tensor shapes. Instances of the same
// kind with the same shapes share a Signature; the runtime's performance
// models key their profiles on that signature, exactly as the paper keys
// the hill-climbing results on "operation with a given input data size".
package op

import (
	"errors"
	"fmt"
	"strconv"
)

// DTypeBytes is the element width of every tensor in the catalog. The
// paper's workloads train in float32.
const DTypeBytes = 4

// Dims is a tensor shape, e.g. NHWC for convolution inputs or (M,K) for
// matrix multiplication operands.
type Dims []int

// Elems returns the number of elements in the tensor, or 0 for an empty
// shape.
func (d Dims) Elems() float64 {
	if len(d) == 0 {
		return 0
	}
	n := 1.0
	for _, v := range d {
		n *= float64(v)
	}
	return n
}

// Bytes returns the tensor size in bytes at DTypeBytes per element.
func (d Dims) Bytes() float64 { return d.Elems() * DTypeBytes }

// Validate reports an error if any dimension is non-positive.
func (d Dims) Validate() error {
	for i, v := range d {
		if v <= 0 {
			return fmt.Errorf("op: dimension %d is %d, must be positive", i, v)
		}
	}
	return nil
}

// Clone returns an independent copy of the shape.
func (d Dims) Clone() Dims {
	if d == nil {
		return nil
	}
	out := make(Dims, len(d))
	copy(out, d)
	return out
}

// Equal reports whether two shapes are identical.
func (d Dims) Equal(o Dims) bool {
	if len(d) != len(o) {
		return false
	}
	for i := range d {
		if d[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the shape the way the paper prints input sizes:
// "(32,8,8,384)".
func (d Dims) String() string { return string(d.appendTo(make([]byte, 0, 24))) }

// appendTo appends the String form to b.
func (d Dims) appendTo(b []byte) []byte {
	b = append(b, '(')
	for i, v := range d {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ')')
}

var errEmptyShape = errors.New("op: empty shape")
