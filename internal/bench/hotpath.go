package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/sharing"
	"github.com/trustddl/trustddl/internal/tensor"
	"github.com/trustddl/trustddl/internal/transport"
)

// The hot-path benchmark: what the allocation work actually bought.
// Every cell is measured twice — once with the optimizations switched
// off (per-element wire codec, no buffer pools, two-step im2col+matmul
// convolution) and once with them on — over the same deterministic
// workload, so the report is a before/after of ns, bytes allocated and
// allocation count per operation.

// HotpathConfig parameterizes the hot-path measurement.
type HotpathConfig struct {
	// Iterations averages each cell over this many operations
	// (default 3 for the secure pass, scaled ×500 for the kernel
	// microbenchmarks, which are far cheaper). The wire codec's wall
	// time ignores it (see wireCodecWallTimes).
	Iterations int
	// Batch is the number of images per secure pass (default 4).
	Batch int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Parallelism sets the tensor-kernel worker count
	// (0 = leave the process-wide setting).
	Parallelism int
}

// HotpathCell is one measured (benchmark, variant) cell.
type HotpathCell struct {
	// Name identifies the workload: "secure-infer" (full batched
	// secure pass over loopback TCP), "conv-kernel" (Table I conv
	// geometry), "wire-codec" (encode+decode one activation-sized
	// matrix).
	Name string `json:"name"`
	// Variant is "baseline" (optimizations off) or "optimized".
	Variant string `json:"variant"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp int64 `json:"ns_per_op"`
	// BytesPerOp is heap bytes allocated per operation, process-wide
	// (all in-process parties included for the secure pass).
	BytesPerOp int64 `json:"bytes_per_op"`
	// AllocsPerOp is heap allocations per operation, process-wide.
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func (cfg *HotpathConfig) defaults() {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

// hotpathToggles flips every optimization at once and remembers what to
// restore.
type hotpathToggles struct{ pool, frame, bulk bool }

func setHotpath(on bool) hotpathToggles {
	return hotpathToggles{
		pool:  tensor.SetPooling(on),
		frame: transport.SetFramePooling(on),
		bulk:  transport.SetBulkCodec(on),
	}
}

func (t hotpathToggles) restore() {
	tensor.SetPooling(t.pool)
	transport.SetFramePooling(t.frame)
	transport.SetBulkCodec(t.bulk)
}

// measureOp runs f iters times and reports per-op wall time and heap
// deltas. The GC runs first so the deltas measure the workload, not
// leftover garbage; allocation counters are process-wide, which is the
// point — for an in-process cluster they include all three parties.
func measureOp(iters int, f func() error) (HotpathCell, error) {
	var cell HotpathCell
	// Warm-up outside the meter: code paths, branch predictors, pools.
	if err := f(); err != nil {
		return cell, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return cell, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	cell.NsPerOp = elapsed.Nanoseconds() / int64(iters)
	cell.BytesPerOp = int64(m1.TotalAlloc-m0.TotalAlloc) / int64(iters)
	cell.AllocsPerOp = int64(m1.Mallocs-m0.Mallocs) / int64(iters)
	return cell, nil
}

// Hotpath measures the secure-step hot path and its two extracted
// kernels, before and after the allocation work.
func Hotpath(cfg HotpathConfig) ([]HotpathCell, error) {
	cfg.defaults()
	if cfg.Parallelism > 0 {
		tensor.SetParallelism(cfg.Parallelism)
	}
	prev := setHotpath(true)
	defer prev.restore()

	var cells []HotpathCell
	for _, variant := range []string{"baseline", "optimized"} {
		setHotpath(variant == "optimized")
		secure, err := measureSecureInfer(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: hotpath %s secure pass: %w", variant, err)
		}
		secure.Name, secure.Variant = "secure-infer", variant
		conv, err := measureConvKernel(cfg, variant == "optimized")
		if err != nil {
			return nil, fmt.Errorf("bench: hotpath %s conv kernel: %w", variant, err)
		}
		conv.Name, conv.Variant = "conv-kernel", variant
		codec, err := measureWireCodec(cfg)
		if err != nil {
			return nil, fmt.Errorf("bench: hotpath %s wire codec: %w", variant, err)
		}
		codec.Name, codec.Variant = "wire-codec", variant
		cells = append(cells, secure, conv, codec)
	}
	perElement, bulk, err := wireCodecWallTimes(cfg, 50)
	if err != nil {
		return nil, fmt.Errorf("bench: hotpath wire codec: %w", err)
	}
	for i, c := range cells {
		if c.Name == "wire-codec" {
			cells[i].NsPerOp = perElement
			if c.Variant == "optimized" {
				cells[i].NsPerOp = bulk
			}
		}
	}
	return cells, nil
}

// measureSecureInfer times one batched secure inference pass of the
// Table I network with all five actors on loopback TCP — the deployment
// shape where the frame pool and bulk codec actually run.
func measureSecureInfer(cfg HotpathConfig) (HotpathCell, error) {
	weights, err := nn.InitPaperWeights(cfg.Seed)
	if err != nil {
		return HotpathCell{}, err
	}
	net, err := transport.NewLoopbackTCPNetwork()
	if err != nil {
		return HotpathCell{}, err
	}
	cluster, err := core.New(core.Config{
		Mode:    core.HonestButCurious,
		Triples: core.OnlineDealing,
		Net:     net,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return HotpathCell{}, err
	}
	defer cluster.Close()
	run, err := cluster.NewRun(weights)
	if err != nil {
		return HotpathCell{}, err
	}
	images := mnist.Synthetic(cfg.Seed, cfg.Batch).Images
	// Warm-up: session plumbing, pool fill, connection setup.
	if _, err := run.InferBatch(context.Background(), images); err != nil {
		return HotpathCell{}, err
	}
	return measureOp(cfg.Iterations, func() error {
		_, err := run.InferBatch(context.Background(), images)
		return err
	})
}

// measureConvKernel compares the fused im2col+matmul kernel against the
// two-step path at the Table I conv geometry (28×28 → 14×14×5, 5×5
// kernel). The baseline variant materializes the patch matrix.
func measureConvKernel(cfg HotpathConfig, fused bool) (HotpathCell, error) {
	shape := nn.PaperConvShape()
	rng := sharing.NewSeededSource(cfg.Seed)
	x := tensor.MustNew[int64](cfg.Batch, shape.InChannels*shape.Height*shape.Width)
	for i := range x.Data {
		x.Data[i] = int64(rng.Uint64() % 2048)
	}
	w := tensor.MustNew[int64](shape.PatchSize(), nn.PaperOutChannels)
	for i := range w.Data {
		w.Data[i] = int64(rng.Uint64() % 2048)
	}
	out := tensor.MustNew[int64](cfg.Batch*shape.OutHeight()*shape.OutWidth(), nn.PaperOutChannels)
	iters := cfg.Iterations * 500
	return measureOp(iters, func() error {
		if fused {
			return tensor.Conv2DBatchInto(shape, x, w, out)
		}
		cols, err := tensor.Im2ColBatch(shape, x)
		if err != nil {
			return err
		}
		return cols.MatMulInto(w, out)
	})
}

// wireCodecOp returns one round trip of an activation-sized share
// matrix (batch×980, the conv output of the Table I network) through
// AppendMatrix/DecodeMatrix. SetBulkCodec decides which codec runs.
func wireCodecOp(cfg HotpathConfig) func() error {
	rng := sharing.NewSeededSource(cfg.Seed)
	m := tensor.MustNew[int64](cfg.Batch, nn.PaperConvOut)
	for i := range m.Data {
		m.Data[i] = int64(rng.Uint64())
	}
	buf := make([]byte, 0, 8*len(m.Data)+64)
	return func() error {
		buf = transport.AppendMatrix(buf[:0], m)
		_, _, err := transport.DecodeMatrix(buf)
		return err
	}
}

// measureWireCodec measures the codec round trip's heap counters over a
// fixed-count window, like the other cells. Its wall time is replaced
// by wireCodecWallTimes.
func measureWireCodec(cfg HotpathConfig) (HotpathCell, error) {
	return measureOp(cfg.Iterations*500, wireCodecOp(cfg))
}

// wireCodecWallTimes times the codec round trip for both codecs and
// returns each one's fastest round in ns/op (per-element first, bulk
// second). The round size is scaled the way testing.B scales b.N, until
// a round lasts about a millisecond, short enough to fit inside one
// scheduler time slice. Rounds alternate between the two codecs, so
// both see the same background load: a CPU shared with other processes
// slows individual rounds, but the fastest round of each codec is one
// that ran undisturbed.
func wireCodecWallTimes(cfg HotpathConfig, rounds int) (perElement, bulk int64, err error) {
	op := wireCodecOp(cfg)
	prev := transport.SetBulkCodec(false)
	defer transport.SetBulkCodec(prev)
	timeRound := func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	const target = time.Millisecond
	n := 1
	for {
		elapsed, err := timeRound(n)
		if err != nil {
			return 0, 0, err
		}
		if elapsed >= target {
			break
		}
		// Predict the count that fills the target, with 20% headroom
		// and at most 100× growth per step.
		next := 100 * n
		if elapsed > 0 {
			next = min(next, int(1.2*float64(n)*float64(target)/float64(elapsed)))
		}
		n = max(n+1, next)
	}
	best := [2]int64{math.MaxInt64, math.MaxInt64}
	for r := 0; r < rounds; r++ {
		for v, on := range []bool{false, true} {
			transport.SetBulkCodec(on)
			elapsed, err := timeRound(n)
			if err != nil {
				return 0, 0, err
			}
			best[v] = min(best[v], elapsed.Nanoseconds()/int64(n))
		}
	}
	return best[0], best[1], nil
}

// hotpathReport is the BENCH_hotpath.json schema.
type hotpathReport struct {
	Benchmark  string        `json:"benchmark"`
	Batch      int           `json:"batch"`
	Iterations int           `json:"iterations"`
	Cells      []HotpathCell `json:"cells"`
}

// WriteHotpathJSON persists the measurement for trend tracking across
// PRs (the BENCH_hotpath.json artifact).
func WriteHotpathJSON(path string, cfg HotpathConfig, cells []HotpathCell) error {
	cfg.defaults()
	report := hotpathReport{
		Benchmark:  "secure-step hot path: buffer pools + bulk wire codec + fused im2col (before/after)",
		Batch:      cfg.Batch,
		Iterations: cfg.Iterations,
		Cells:      cells,
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// FormatHotpath renders the before/after cells as a table with ratios.
func FormatHotpath(cells []HotpathCell) string {
	byName := map[string][2]HotpathCell{}
	var order []string
	for _, c := range cells {
		pair, seen := byName[c.Name]
		if !seen {
			order = append(order, c.Name)
		}
		if c.Variant == "optimized" {
			pair[1] = c
		} else {
			pair[0] = c
		}
		byName[c.Name] = pair
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-10s %14s %14s %12s\n", "Benchmark", "Variant", "ns/op", "B/op", "allocs/op")
	fmt.Fprintln(&b, strings.Repeat("-", 68))
	for _, name := range order {
		pair := byName[name]
		for _, c := range pair {
			fmt.Fprintf(&b, "%-14s %-10s %14d %14d %12d\n", c.Name, c.Variant, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
		}
		if pair[0].NsPerOp > 0 && pair[1].NsPerOp > 0 {
			fmt.Fprintf(&b, "%-14s %-10s %13.2fx %13.2fx %11.2fx\n", "", "ratio",
				float64(pair[0].NsPerOp)/float64(pair[1].NsPerOp),
				ratioOrInf(pair[0].BytesPerOp, pair[1].BytesPerOp),
				ratioOrInf(pair[0].AllocsPerOp, pair[1].AllocsPerOp))
		}
	}
	return b.String()
}

func ratioOrInf(before, after int64) float64 {
	if after <= 0 {
		if before <= 0 {
			return 1
		}
		return float64(before)
	}
	return float64(before) / float64(after)
}
