package workloads

import (
	"fmt"
	"math"
	"sync"

	"uvmasim/internal/cuda"
	"uvmasim/internal/gpu"
	"uvmasim/internal/kernels"
	"uvmasim/internal/workloads/darknet"
)

// darknetBench adapts one of the four darknet networks (Table 2) to the
// benchmark harness. The measured region is a batched inference: weights
// and an input batch are staged, then each layer launches a kernel
// (convolutions lower to the tiled gemm the paper analyzes for yolov3,
// §4.1.2), with activations ping-ponging between two device buffers.
type darknetBench struct {
	name  string
	build func() *darknet.Network
	once  sync.Once
	net   *darknet.Network // built lazily, cached; read-only once built
}

func newResNet18() Workload   { return &darknetBench{name: "resnet18", build: darknet.ResNet18} }
func newResNet50() Workload   { return &darknetBench{name: "resnet50", build: darknet.ResNet50} }
func newYoloV3Tiny() Workload { return &darknetBench{name: "yolov3-tiny", build: darknet.YoloV3Tiny} }
func newYoloV3() Workload     { return &darknetBench{name: "yolov3", build: darknet.YoloV3} }

func (d *darknetBench) Name() string   { return d.name }
func (d *darknetBench) Domain() string { return "machine learning" }

// network builds the graph once. Workload values are registry singletons
// shared by concurrent harness workers, so the build is synchronized;
// the Network itself is never mutated after construction.
func (d *darknetBench) network() *darknet.Network {
	d.once.Do(func() { d.net = d.build() })
	return d.net
}

// imagesFor scales the inference workload with the input class: darknet
// runs batch-1 detection/classification (as the paper's darknet harness
// does), so larger classes process more images rather than bigger
// tensors.
func imagesFor(size Size) int {
	n := int(size.Footprint() / (512 << 20))
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}

// layerSpec lowers one layer at the given batch to a kernel description.
func layerSpec(l darknet.Layer, batch int64) gpu.KernelSpec {
	switch l.Kind {
	case darknet.Conv:
		// im2col + tiled gemm: M = filters, K = inC*k^2, N = outHW*batch.
		m := int64(l.Filters)
		k := int64(l.In.C * l.KSize * l.KSize)
		n := int64(l.Out.H*l.Out.W) * batch
		s := kernels.MatMul("conv_gemm", m, n, k, 64)
		// Unique bytes: the layer's input activations plus its weights
		// (the im2col gather's k^2 re-reads live in LoadAccessBytes).
		s.LoadBytes = 4 * (int64(l.In.Elems())*batch + int64(l.Weights()))
		if s.LoadAccessBytes < s.LoadBytes {
			s.LoadAccessBytes = s.LoadBytes
		}
		return s
	case darknet.Connected:
		m := int64(l.Filters)
		k := int64(l.In.Elems())
		s := kernels.MatMul("fc_gemm", m, batch, k, 64)
		s.LoadBytes = 4 * (k*batch + int64(l.Weights()))
		if s.LoadAccessBytes < s.LoadBytes {
			s.LoadAccessBytes = s.LoadBytes
		}
		return s
	default:
		// Pool/shortcut/route/upsample/yolo: streaming element-wise work.
		elems := int64(l.Out.Elems()) * batch
		reads := 1
		if l.Kind == darknet.Shortcut {
			reads = 2
		}
		flops := l.FLOPs() / float64(l.Out.Elems())
		return kernels.Stream(l.Kind.String(), elems, reads, 1, flops, 4, gpu.Sequential)
	}
}

// FixedFootprint reports whether w allocates the same device memory at
// every input class: the darknet networks, whose larger classes run
// more images through the same weight and activation buffers.
func FixedFootprint(w Workload) bool {
	_, ok := w.(*darknetBench)
	return ok
}

func (d *darknetBench) Run(ctx *cuda.Context, size Size) error {
	net := d.network()
	const batch = 1
	images := imagesFor(size)

	// Per-layer weight buffers (prefetch granularity matches what the
	// darknet UVM port does: one managed allocation per layer).
	weightBufs := make([]*cuda.Buffer, len(net.Layers))
	for i, l := range net.Layers {
		if w := l.Weights(); w > 0 {
			b, err := ctx.Alloc(fmt.Sprintf("%s.w%d", d.name, i), int64(w)*4)
			if err != nil {
				return err
			}
			weightBufs[i] = b
			if err := ctx.Upload(b); err != nil {
				return err
			}
		}
	}
	actBytes := int64(net.MaxActivation()) * 4 * batch
	actA, err := ctx.Alloc(d.name+".actA", actBytes)
	if err != nil {
		return err
	}
	actB, err := ctx.Alloc(d.name+".actB", actBytes)
	if err != nil {
		return err
	}
	in, out := actA, actB
	for img := 0; img < images; img++ {
		// Host-side image decode + letterbox resize (darknet's
		// load_image/resize path) precedes every inference.
		ctx.HostCompute(25e6)
		if err := ctx.Upload(in); err != nil { // the next input image
			return err
		}
		for i, l := range net.Layers {
			spec := layerSpec(l, batch)
			spec.Name = fmt.Sprintf("%s_l%d_%s", d.name, i, spec.Name)
			reads := []*cuda.Buffer{in}
			if weightBufs[i] != nil {
				reads = append(reads, weightBufs[i])
			}
			if err := ctx.Launch(cuda.Launch{
				Spec:   spec,
				Reads:  reads,
				Writes: []*cuda.Buffer{out},
			}); err != nil {
				return err
			}
			in, out = out, in
		}
		if err := ctx.Consume(in); err != nil { // this image's predictions
			return err
		}
	}
	ctx.Synchronize()
	for _, b := range weightBufs {
		if b == nil {
			continue
		}
		if err := ctx.Free(b); err != nil {
			return err
		}
	}
	if err := ctx.Free(actA); err != nil {
		return err
	}
	return ctx.Free(actB)
}

// Validate runs the real network graph (rebuilt at a reduced input
// resolution so the naive conv stays fast) and checks the forward pass
// produces finite, structurally consistent activations.
func (d *darknetBench) Validate() error {
	net := d.network()
	small := darknet.Rebuild(net, reducedInput(net.Input))
	params := darknet.InitParams(small, 21)
	in := darknet.NewTensor(small.Input)
	for i := range in.Data {
		in.Data[i] = float32((i%255))/255 - 0.5
	}
	outs, err := small.Forward(in, params)
	if err != nil {
		return fmt.Errorf("%s: %v", d.name, err)
	}
	nonzero := 0
	for li, o := range outs {
		if len(o.Data) != o.Shape.Elems() {
			return fmt.Errorf("%s: layer %d activation size %d != shape %v",
				d.name, li, len(o.Data), o.Shape)
		}
		for _, v := range o.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("%s: non-finite activation in layer %d", d.name, li)
			}
			if v != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		return fmt.Errorf("%s: forward pass produced all-zero activations", d.name)
	}
	return nil
}

// reducedInput shrinks the network input to keep the functional forward
// pass affordable. It must stay a multiple of the networks' total stride
// (32) so route/shortcut spatial shapes keep lining up.
func reducedInput(s darknet.Shape) darknet.Shape {
	h := s.H / 4 / 32 * 32
	if h < 64 {
		h = 64
	}
	return darknet.Shape{C: s.C, H: h, W: h}
}
