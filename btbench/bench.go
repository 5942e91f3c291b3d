package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trustddl/trustddl/internal/byzantine"
	"github.com/trustddl/trustddl/internal/core"
	"github.com/trustddl/trustddl/internal/mnist"
	"github.com/trustddl/trustddl/internal/nn"
	"github.com/trustddl/trustddl/internal/obs"
	"github.com/trustddl/trustddl/internal/protocol"
	"github.com/trustddl/trustddl/internal/serve"
	"github.com/trustddl/trustddl/internal/transport"
)

const (
	// setupReps is how many times each run builds the deployment;
	// setup_s is their median and the last one is measured.
	setupReps = 7
	// poolSize is how many distinct seeded images the requests cycle
	// through; trainPool is the training sample stream, heldOut the
	// accuracy test set.
	poolSize  = 512
	trainPool = 2048
	heldOut   = 256
	learnRate = 0.1
	// logitSlack is how far below the plaintext maximum a served
	// label's plaintext logit may sit (ties within fixed-point error).
	logitSlack = 1e-3
	// accuracyGap bounds secure- versus plaintext-trained held-out
	// accuracy.
	accuracyGap = 0.05
)

// inputs is everything the seed determines.
type inputs struct {
	weights nn.PaperWeights
	pool    []mnist.Image
	// ok[i][c] reports whether class c is an acceptable answer for pool
	// image i: its plaintext logit is within logitSlack of the maximum.
	ok    [][mnist.NumClasses]bool
	index map[[mnist.NumPixels]float64]int
	test  mnist.Dataset
}

func makeInputs(w workload, seed uint64) (*inputs, error) {
	weights, err := nn.InitPaperWeights(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{weights: weights}
	if w.train {
		in.pool = mnist.Synthetic(seed, trainPool).Images
		in.test = mnist.Synthetic(seed^0x5eed7e57, heldOut)
		return in, nil
	}
	in.pool = mnist.Synthetic(seed, poolSize).Images
	plain, err := nn.NewPlainPaperNet(weights)
	if err != nil {
		return nil, err
	}
	logits, err := plain.Logits(imageMatrix(in.pool))
	if err != nil {
		return nil, err
	}
	in.ok = make([][mnist.NumClasses]bool, len(in.pool))
	in.index = make(map[[mnist.NumPixels]float64]int, len(in.pool))
	for i, img := range in.pool {
		best := logits.At(i, 0)
		for c := 1; c < mnist.NumClasses; c++ {
			best = max(best, logits.At(i, c))
		}
		for c := 0; c < mnist.NumClasses; c++ {
			in.ok[i][c] = logits.At(i, c) >= best-logitSlack
		}
		in.index[img.Pixels] = i
	}
	return in, nil
}

func imageMatrix(images []mnist.Image) nn.Mat64 {
	x := nn.Mat64{Rows: len(images), Cols: mnist.NumPixels, Data: make([]float64, len(images)*mnist.NumPixels)}
	for i := range images {
		copy(x.Data[i*mnist.NumPixels:], images[i].Pixels[:])
	}
	return x
}

// pass is one secure pass: an InferBatch call of the gateway, or one
// TrainBatch step.
type pass struct {
	start, end time.Time
	images     []int // pool indices (traced inference; train: the batch offset)
	n          int
}

// request is one Classify call, or one training step.
type request struct {
	start, end time.Time
	image      int
	err        error
	wrong      bool
}

// engine is the serve.Inferencer the gateway drives: the secure run,
// timed per pass.
type engine struct {
	run     *core.Run
	index   map[[mnist.NumPixels]float64]int
	convict func() bool

	mu             sync.Mutex
	passes         []pass
	convictedAfter int
}

func (e *engine) InferBatch(ctx context.Context, images []mnist.Image) ([]int, error) {
	start := time.Now()
	labels, err := e.run.InferBatch(ctx, images)
	p := pass{start: start, end: time.Now(), n: len(images)}
	if e.index != nil {
		for i := range images {
			p.images = append(p.images, e.index[images[i].Pixels])
		}
	}
	convicted := e.convict != nil && e.convict()
	e.mu.Lock()
	e.passes = append(e.passes, p)
	if convicted && e.convictedAfter == 0 {
		e.convictedAfter = len(e.passes)
	}
	e.mu.Unlock()
	return labels, err
}

// env is one deployment: loopback TCP mesh, cluster, provisioned
// model and, for inference, the gateway.
type env struct {
	net     transport.Network
	ledger  *ledgerNet
	reg     *obs.Registry
	cluster *core.Cluster
	run     *core.Run
	eng     *engine
	gw      *serve.Gateway
}

func setup(w workload, in *inputs, traced bool) (*env, error) {
	tcp, err := transport.NewLoopbackTCPNetwork()
	if err != nil {
		return nil, err
	}
	e := &env{}
	var net transport.Network = tcp
	if traced {
		// The ledger sits directly on the TCP network, below the latency
		// wrapper, so it counts exactly the socket writes the meter counts.
		e.ledger = newLedgerNet(tcp)
		e.reg = obs.NewRegistry("btbench")
		net = e.ledger
	}
	e.net = transport.WithLatency(net, w.latency)
	cfg := core.Config{Mode: core.Malicious, Net: e.net, Obs: e.reg}
	if w.byzantine {
		cfg.Adversaries = map[int]protocol.Adversary{3: byzantine.CommitViolator{}}
	}
	if e.cluster, err = core.New(cfg); err != nil {
		_ = e.net.Close()
		return nil, err
	}
	if e.run, err = e.cluster.NewRun(in.weights); err != nil {
		e.close()
		return nil, err
	}
	if !w.train {
		e.eng = &engine{run: e.run}
		if traced {
			e.eng.index = in.index
			e.eng.convict = func() bool { return len(e.cluster.Suspicions().Convicted) > 0 }
		}
		e.gw = serve.New(e.eng, serve.Config{MaxBatch: w.maxBatch})
	}
	return e, nil
}

func (e *env) close() {
	if e.gw != nil {
		e.gw.Close()
	}
	_ = e.cluster.Close()
	_ = e.net.Close()
}

// rtSample is the Go runtime's cumulative counters at one instant.
type rtSample struct {
	allocs, gcs     uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// heapSampler tracks the highest live heap (as marked by the last GC)
// until stopped.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// outcome is everything one measured window produced.
type outcome struct {
	setupSecs []float64
	start     time.Time
	end       time.Time
	elapsed   time.Duration
	requests  []request
	passes    []pass
	samples   int
	checks    int
	failures  []string

	stats     transport.Stats
	rt        rtSample
	peakHeap  uint64
	obsDelta  obsDelta
	spans     []msgSpan
	convicted int
	// steal is the share of CPU time the hypervisor took from this
	// machine from the first setup to the end of the window.
	steal float64
}

// measure builds the deployment, warms it up, runs the workload for d
// and checks every output.
func measure(w workload, in *inputs, d time.Duration, traced bool) (*outcome, error) {
	out := &outcome{}
	st0 := readSteal()
	reps := setupReps
	if traced {
		reps = 1
	}
	var e *env
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		next, err := setup(w, in, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setupSecs = append(out.setupSecs, time.Since(start).Seconds())
		if i < reps-1 {
			next.close()
		}
		e = next
	}
	defer func() {
		if e != nil {
			e.close()
		}
	}()

	stream := &trainStream{pool: in.pool, batch: w.maxBatch}
	if err := warmUp(w, e, in, stream); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Let deliveries queued behind injected latency land, so the ledger
	// and the meter start from the same instant.
	time.Sleep(20 * time.Millisecond)
	runtime.GC()

	stats0 := e.cluster.Stats()
	var reg0 obs.Snapshot
	if traced {
		e.ledger.take()
		reg0 = e.reg.Snapshot()
	}
	rt0 := readRuntime()
	heap := startHeapSampler()
	out.start = time.Now()

	switch {
	case w.train:
		runTrain(w, e, stream, d, out)
	default:
		runClosedLoop(w, e, in, d, out)
	}

	out.end = time.Now()
	out.steal = stealShare(st0, readSteal())
	out.stats = diffStats(stats0, e.cluster.Stats())
	out.peakHeap = heap.finish()
	rt1 := readRuntime()
	out.rt = rtSample{rt1.allocs - rt0.allocs, rt1.gcs - rt0.gcs, rt1.gcCPU - rt0.gcCPU, rt1.totalCPU - rt0.totalCPU}
	if traced {
		out.obsDelta = diffObs(reg0, e.reg.Snapshot())
	}
	if e.eng != nil {
		e.eng.mu.Lock()
		for _, p := range e.eng.passes {
			if !p.start.Before(out.start) {
				out.passes = append(out.passes, p)
			}
		}
		out.convicted = e.eng.convictedAfter
		e.eng.mu.Unlock()
	}

	if w.train {
		checkTrain(e, in, stream, out)
	}
	if w.byzantine {
		convicted := e.cluster.Suspicions().Convicted
		out.check(len(convicted) == 1 && convicted[0] == 3, "convicted parties %v, want [3]", convicted)
	}

	// Tear down before reading the meter, so every send of the window
	// (and of the teardown) has completed on both sides of the ledger.
	done := e
	e = nil
	done.close()
	if traced {
		total := diffStats(stats0, done.cluster.Stats())
		var msgs, bytes int64
		for _, s := range done.ledger.take() {
			if !s.recv {
				msgs++
				bytes += s.bytes
			}
			if s.start.Before(out.end) {
				out.spans = append(out.spans, s)
			}
		}
		out.check(msgs == total.Messages && bytes == total.Bytes,
			"transport ledger %d msgs / %d bytes, cluster meter %d msgs / %d bytes", msgs, bytes, total.Messages, total.Bytes)
	}
	return out, nil
}

// check records one run-level output check and returns its verdict.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.checks++
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func diffStats(a, b transport.Stats) transport.Stats {
	return transport.Stats{Messages: b.Messages - a.Messages, Bytes: b.Bytes - a.Bytes}
}

// warmUp runs passes that open every connection and fill the buffer
// pools before timing starts: two full batches through the gateway, or
// one training step (which the plaintext replay then includes).
func warmUp(w workload, e *env, in *inputs, stream *trainStream) error {
	if w.train {
		_, err := stream.step(e.run)
		return err
	}
	batch := max(w.callers, 1)
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		errs := make([]error, batch)
		for i := 0; i < batch; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = e.gw.Classify(context.Background(), in.pool[len(in.pool)-1-i])
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// serveOne sends one request through the gateway and checks its label.
func serveOne(e *env, in *inputs, image int) request {
	start := time.Now()
	label, err := e.gw.Classify(context.Background(), in.pool[image])
	r := request{start: start, end: time.Now(), image: image, err: err}
	r.wrong = err == nil && (label < 0 || label >= mnist.NumClasses || !in.ok[image][label])
	return r
}

// runClosedLoop drives the gateway from w.callers goroutines that each
// send their next request as soon as the previous one is answered.
func runClosedLoop(w workload, e *env, in *inputs, d time.Duration, out *outcome) {
	start := time.Now()
	stop := start.Add(d)
	var next atomic.Int64
	per := make([][]request, w.callers)
	var wg sync.WaitGroup
	for c := 0; c < w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				image := int(next.Add(1)-1) % len(in.pool)
				per[c] = append(per[c], serveOne(e, in, image))
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	for _, rs := range per {
		out.requests = append(out.requests, rs...)
	}
	sort.Slice(out.requests, func(i, j int) bool { return out.requests[i].start.Before(out.requests[j].start) })
	tally(out)
}

// tally counts served samples and failed requests.
func tally(out *outcome) {
	for _, r := range out.requests {
		switch {
		case r.err != nil:
			out.failures = append(out.failures, fmt.Sprintf("request for image %d: %v", r.image, r.err))
		case r.wrong:
			out.failures = append(out.failures, fmt.Sprintf("image %d: served label is not a plaintext argmax", r.image))
		default:
			out.samples++
		}
	}
}

// trainStream hands out consecutive seeded batches and remembers them
// for the plaintext replay.
type trainStream struct {
	pool  []mnist.Image
	batch int
	used  [][]mnist.Image
}

// step runs one secure SGD step on the next batch and returns the
// batch's offset in the pool.
func (s *trainStream) step(run *core.Run) (int, error) {
	at := (len(s.used) * s.batch) % (len(s.pool) - s.batch + 1)
	b := s.pool[at : at+s.batch]
	s.used = append(s.used, b)
	return at, run.TrainBatch(b, learnRate)
}

// runTrain runs secure SGD steps back to back for d.
func runTrain(w workload, e *env, stream *trainStream, d time.Duration, out *outcome) {
	start := time.Now()
	for time.Since(start) < d {
		t := time.Now()
		at, err := stream.step(e.run)
		end := time.Now()
		out.requests = append(out.requests, request{start: t, end: end, image: at, err: err})
		out.passes = append(out.passes, pass{start: t, end: end, images: []int{at}, n: w.maxBatch})
		if err != nil {
			out.failures = append(out.failures, fmt.Sprintf("train step %d: %v", len(out.requests), err))
			continue
		}
		out.samples += w.maxBatch
	}
	out.elapsed = time.Since(start)
}

// checkTrain reveals the secure-trained weights and compares their
// held-out accuracy with a plaintext model trained on the same batches
// in the same order.
func checkTrain(e *env, in *inputs, stream *trainStream, out *outcome) {
	ms, err := e.run.WeightMatrices()
	if !out.check(err == nil && len(ms) == 3, "reveal trained weights: %v (%d matrices)", err, len(ms)) {
		return
	}
	secure, err1 := accuracy(nn.PaperWeights{Conv: ms[0], FC1: ms[1], FC2: ms[2]}, in.test, nil)
	initial, err2 := accuracy(in.weights, in.test, nil)
	plain, err3 := accuracy(in.weights, in.test, stream.used)
	if err := errors.Join(err1, err2, err3); err != nil {
		out.check(false, "held-out accuracy: %v", err)
		return
	}
	fmt.Fprintf(os.Stderr, "btbench: held-out accuracy after %d steps: secure-trained %.4f, plaintext-trained %.4f, initial %.4f\n",
		len(stream.used), secure, plain, initial)
	out.check(math.Abs(secure-plain) <= accuracyGap, "secure-trained accuracy %.4f vs plaintext-trained %.4f", secure, plain)
	out.check(plain > initial, "plaintext-trained accuracy %.4f does not beat the initial %.4f", plain, initial)
}

// accuracy trains a plaintext Table I net from w on the given batches
// and returns its accuracy on test.
func accuracy(w nn.PaperWeights, test mnist.Dataset, batches [][]mnist.Image) (float64, error) {
	net, err := nn.NewPlainPaperNet(w)
	if err != nil {
		return 0, err
	}
	for _, b := range batches {
		labels := make([]int, len(b))
		for i := range b {
			labels[i] = b[i].Label
		}
		if _, err := net.TrainBatch(imageMatrix(b), labels, learnRate); err != nil {
			return 0, err
		}
	}
	pred, err := net.Predict(imageMatrix(test.Images))
	if err != nil {
		return 0, err
	}
	hits := 0
	for i, p := range pred {
		if p == test.Images[i].Label {
			hits++
		}
	}
	return float64(hits) / float64(len(pred)), nil
}

// readSteal returns the machine's cumulative steal and total CPU ticks
// from /proc/stat (zero where it is unavailable).
func readSteal() [2]float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]float64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var ticks [2]float64
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i == 7 {
			ticks[0] = v
		}
		if i < 8 {
			ticks[1] += v
		}
	}
	return ticks
}

func stealShare(a, b [2]float64) float64 {
	if b[1] <= a[1] {
		return 0
	}
	return (b[0] - a[0]) / (b[1] - a[1])
}
