// Command btbench is TrustDDL's benchmark: it runs one named workload of
// the Byzantine-tolerant (Malicious-mode) three-party protocol over
// loopback TCP, checks every output against a plaintext reference, and
// prints its metrics as one JSON object on the last line of standard
// output. See README.md for the workloads, metrics and checks.
//
//	bash btbench/run.sh --workload infer-saturated --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// workload is one input set the benchmark can run.
type workload struct {
	// train selects the secure-training loop instead of the gateway.
	train bool
	// callers is the closed loop's concurrent caller count: each sends
	// its next request as soon as the previous one is answered.
	callers int
	// maxBatch is the gateway's MaxBatch (0 keeps the default, 8); for
	// train it is the SGD batch.
	maxBatch int
	// latency is the injected one-way link latency.
	latency time.Duration
	// byzantine makes P3 a commitment violator (the paper's Case 1).
	byzantine bool
}

var workloads = map[string]workload{
	"infer-sparse":    {callers: 1, latency: 2 * time.Millisecond},
	"infer-saturated": {callers: 32, maxBatch: 32},
	"train":           {train: true, maxBatch: 8},
	"infer-byzantine": {callers: 32, maxBatch: 32, byzantine: true},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: infer-sparse, infer-saturated, train or infer-byzantine")
	seed := flag.Uint64("seed", 1, "seed of the weights, images and arrival schedule")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "source revision, recorded in the provenance line")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "btbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	prov := provenance(*commit, *name, *seed, *trace == 1)
	if err := json.NewEncoder(os.Stdout).Encode(map[string]any{"provenance": prov}); err != nil {
		os.Exit(1)
	}

	res, err := runWorkload(w, *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, prov)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
