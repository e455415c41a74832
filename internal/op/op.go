package op

import (
	"fmt"
	"strconv"

	"opsched/internal/hw"
)

// Op is one operation instance: a kind plus concrete shapes. Within a
// training step an operation kind typically has many instances with
// different input sizes (Inception-v3 has 42 differently-shaped
// Conv2DBackpropFilter instances per step); instances with equal signatures
// behave identically and share performance profiles.
type Op struct {
	// Kind is the operation primitive.
	Kind Kind
	// Input is the primary input tensor shape. For convolutions and pools
	// it is NHWC; for MatMul it is (M,K); for ApplyAdam it is the parameter
	// tensor shape.
	Input Dims
	// Filter is the filter shape (KH,KW,Cin,Cout) for convolutions, or the
	// second operand (K,N) for MatMul. Empty otherwise.
	Filter Dims
	// Stride is the convolution/pool stride; 0 means 1.
	Stride int
	// Window is the pooling window edge; 0 means 2.
	Window int
	// NumInputs is the operand count for AddN/Concat; 0 means 2.
	NumInputs int
}

// stride returns the effective stride.
func (o *Op) stride() int {
	if o.Stride <= 0 {
		return 1
	}
	return o.Stride
}

// window returns the effective pooling window.
func (o *Op) window() int {
	if o.Window <= 0 {
		return 2
	}
	return o.Window
}

// numInputs returns the effective operand count for variadic ops.
func (o *Op) numInputs() int {
	if o.NumInputs <= 0 {
		return 2
	}
	return o.NumInputs
}

// Validate reports whether the instance is well-formed for its kind.
func (o *Op) Validate() error {
	if !o.Kind.Known() {
		return fmt.Errorf("op: unknown kind %q", o.Kind)
	}
	if len(o.Input) == 0 {
		return fmt.Errorf("op: %s: %w", o.Kind, errEmptyShape)
	}
	if err := o.Input.Validate(); err != nil {
		return fmt.Errorf("op: %s input: %w", o.Kind, err)
	}
	if err := o.Filter.Validate(); err != nil {
		return fmt.Errorf("op: %s filter: %w", o.Kind, err)
	}
	switch o.Kind {
	case Conv2D, Conv2DBackpropFilter, Conv2DBackpropInput:
		if len(o.Input) != 4 {
			return fmt.Errorf("op: %s wants NHWC input, got %v", o.Kind, o.Input)
		}
		if len(o.Filter) != 4 {
			return fmt.Errorf("op: %s wants KHKWCinCout filter, got %v", o.Kind, o.Filter)
		}
		if o.Filter[2] != o.Input[3] {
			return fmt.Errorf("op: %s filter Cin %d != input C %d", o.Kind, o.Filter[2], o.Input[3])
		}
	case MatMul:
		if len(o.Input) != 2 || len(o.Filter) != 2 {
			return fmt.Errorf("op: MatMul wants (M,K)x(K,N), got %v x %v", o.Input, o.Filter)
		}
		if o.Input[1] != o.Filter[0] {
			return fmt.Errorf("op: MatMul inner dims %d != %d", o.Input[1], o.Filter[0])
		}
	case MaxPooling, MaxPoolingGrad, AvgPool, AvgPoolGrad:
		if len(o.Input) != 4 {
			return fmt.Errorf("op: %s wants NHWC input, got %v", o.Kind, o.Input)
		}
	}
	return nil
}

// OutputDims returns the shape the operation produces. Only the kinds whose
// output shape differs from the input override the identity default.
func (o *Op) OutputDims() Dims {
	switch o.Kind {
	case Conv2D:
		s := o.stride()
		return Dims{o.Input[0], ceilDiv(o.Input[1], s), ceilDiv(o.Input[2], s), o.Filter[3]}
	case Conv2DBackpropFilter:
		return o.Filter.Clone()
	case Conv2DBackpropInput:
		return o.Input.Clone()
	case MatMul:
		return Dims{o.Input[0], o.Filter[1]}
	case MaxPooling, AvgPool:
		w := o.window()
		return Dims{o.Input[0], ceilDiv(o.Input[1], w), ceilDiv(o.Input[2], w), o.Input[3]}
	case BiasAddGrad:
		return Dims{o.Input[len(o.Input)-1]}
	case Tile:
		out := o.Input.Clone()
		out[0] *= o.numInputs()
		return out
	case Concat:
		out := o.Input.Clone()
		out[len(out)-1] *= o.numInputs()
		return out
	default:
		return o.Input.Clone()
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FLOPs returns the abstract floating-point work of the instance. The
// counts follow the usual conventions (2 FLOPs per multiply-accumulate);
// elementwise kinds count a handful of FLOPs per element to reflect their
// per-element instruction cost.
func (o *Op) FLOPs() float64 {
	in := o.Input
	switch o.Kind {
	case Conv2D:
		out := o.OutputDims()
		return out.Elems() * float64(o.Filter[0]*o.Filter[1]*o.Filter[2]) * 2
	case Conv2DBackpropFilter:
		// Same MACs as forward, plus the filter-gradient reduction.
		fwd := Op{Kind: Conv2D, Input: in, Filter: o.Filter, Stride: o.Stride}
		return fwd.FLOPs() * 1.1
	case Conv2DBackpropInput:
		fwd := Op{Kind: Conv2D, Input: in, Filter: o.Filter, Stride: o.Stride}
		return fwd.FLOPs() * 1.05
	case MatMul:
		return float64(in[0]) * float64(in[1]) * float64(o.Filter[1]) * 2
	case MaxPooling, AvgPool:
		return in.Elems() * 1.5
	case MaxPoolingGrad, AvgPoolGrad:
		return in.Elems() * 2
	case FusedBatchNorm:
		return in.Elems() * 8
	case FusedBatchNormGrad:
		return in.Elems() * 12
	case Relu, Add, Mul, BiasAdd, Reshape, Gather:
		return in.Elems()
	case ReluGrad, GatherGrad:
		return in.Elems() * 2
	case Tanh, Sigmoid:
		return in.Elems() * 10
	case TanhGrad, SigmoidGrad:
		return in.Elems() * 4
	case BiasAddGrad:
		return in.Elems() * 1.2
	case AddN:
		return in.Elems() * float64(o.numInputs())
	case Tile, Concat, Pad, InputConversion, ToTf:
		return o.OutputDims().Elems()
	case ApplyAdam:
		return in.Elems() * 6
	case ApplyGradientDescent:
		return in.Elems() * 2
	case Softmax:
		return in.Elems() * 8
	case SparseSoftmaxCross:
		return in.Elems() * 12
	default:
		return in.Elems()
	}
}

// TensorBytes returns the total footprint of the instance's input, output
// and filter tensors.
func (o *Op) TensorBytes() float64 {
	b := o.Input.Bytes() + o.OutputDims().Bytes() + o.Filter.Bytes()
	if o.Kind == AddN || o.Kind == Concat {
		b += o.Input.Bytes() * float64(o.numInputs()-1)
	}
	return b
}

// Cost derives the machine-independent cost description the hw model
// consumes. Work scales with FLOPs through the kind's calibrated
// single-thread efficiency; traffic scales with the tensor footprint.
//
// Real kernels additionally carry shape-dependent efficiency quirks —
// blocking factors, vector-tail handling, layout edge cases — so the
// calibrated constants are perturbed deterministically per operation class.
// This is what makes regression across operation classes genuinely hard
// (Table IV) while direct per-class measurement (the hill climb) stays
// exact: two runs of the same class always agree.
func (o *Op) Cost() hw.OpCost {
	kp, ok := params[o.Kind]
	if !ok {
		kp = params[Reshape]
	}
	sig := o.Signature()
	u1 := shapeHashUnit(sig, 1)
	u2 := shapeHashUnit(sig, 2)
	u3 := shapeHashUnit(sig, 3)
	bytes := o.TensorBytes()
	return hw.OpCost{
		WorkNs:          kp.nsPerFlop * (0.90 + 0.20*u1) * o.FLOPs(),
		SerialFrac:      kp.serialFrac * (0.60 + 0.80*u2),
		SpawnNs:         kp.spawnNs * (0.60 + 0.80*u3),
		Bytes:           bytes * kp.trafficMul,
		WorkingSetBytes: bytes,
		ShareFrac:       kp.shareFrac,
		MissBase:        kp.missBase,
	}
}

// shapeHashUnit maps an operation class deterministically to [0,1).
func shapeHashUnit(sig string, salt uint64) float64 {
	h := salt ^ 0x9e3779b97f4a7c15
	for _, c := range sig {
		h ^= uint64(c)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return float64(h>>11) / float64(1<<53)
}

// Signature identifies the (kind, shapes) class of the instance. Instances
// with equal signatures share performance profiles in the runtime.
func (o *Op) Signature() string {
	b := make([]byte, 0, 64)
	b = append(b, o.Kind...)
	b = o.Input.appendTo(b)
	if len(o.Filter) > 0 {
		b = o.Filter.appendTo(b)
	}
	if o.Stride > 1 {
		b = strconv.AppendInt(append(b, "/s"...), int64(o.Stride), 10)
	}
	if o.NumInputs > 2 {
		b = strconv.AppendInt(append(b, "/n"...), int64(o.NumInputs), 10)
	}
	return string(b)
}

// String implements fmt.Stringer.
func (o *Op) String() string { return o.Signature() }

// Conv builds a square convolution instance: input NHWC, k×k kernel from
// cin to cout channels.
func Conv(kind Kind, n, h, w, cin, k, cout, stride int) *Op {
	return &Op{
		Kind:   kind,
		Input:  Dims{n, h, w, cin},
		Filter: Dims{k, k, cin, cout},
		Stride: stride,
	}
}

// Elementwise builds a single-input elementwise instance.
func Elementwise(kind Kind, dims ...int) *Op {
	return &Op{Kind: kind, Input: Dims(dims)}
}
