// Command perfbench is the simulator's end-to-end benchmark. It builds and
// runs one named workload the way mlcc.Run does — topology build, workload
// generation or scenario binding, flow registration, Network.Run, result
// collection — timing set-up and run apart, and gates every run on
// correctness: closed audit books, a balanced flow ledger and, at the default
// seed, the pinned determinism digest.
//
// With -trace 0 it repeats the workload for -seconds and reports the
// end-to-end metrics (host time, tracing off). With -trace 1 it makes one
// untraced and one traced run and reports the per-layer metrics; the traced
// run times calls into each layer through the simulator's exported extension
// points and must reproduce the untraced digest exactly.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload twodc-hadoop-dcqcn --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool   // scaled-down workload variant (tests)
	root     string // repository root, for the machine record
	spans    string // span sample path ("" = default under .bench_build)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time of a -trace 0 run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer pass, 0 = end-to-end pass")
	fs.BoolVar(&o.short, "short", false, "run the scaled-down variant of the workload")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.spans, "spans", "", "where the traced pass writes its span sample")
	repIdx := fs.Int("rep", -1, "run one repetition of this input in a child process (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	s, err := lookup(o.workload, o.short)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be > 0")
		return 2
	}
	if os.Getenv(childEnv) != "" {
		if err := runRep(s, o, *repIdx, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	m := machineRecord(o.root)
	mj, _ := json.Marshal(m)
	fmt.Fprintf(stdout, "machine %s\n", mj)
	fmt.Fprintf(stdout, "workload %s seed %d trace %v\n", s.name, o.seed, o.trace)

	var res *result
	if o.trace {
		if o.spans == "" {
			o.spans = filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", s.name, o.seed))
		}
		res, err = tracePass(s, o, m, stdout)
	} else {
		res, err = endToEnd(s, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stdout, "metric %-32s %.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	b, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// setupReps is how many set-ups a -trace 0 run times before each
// repetition, each on a freshly collected heap: set-up takes milliseconds, so
// its median needs many samples, spread over the run like the runs are.
const setupReps = 8

// childEnv marks a child process that runs one measured repetition.
const childEnv = "PERFBENCH_REP"

// rep is one measured set-up and run of one input, made in a child process
// so that its peak RSS and allocation are its own.
type rep struct {
	Seed       int64    `json:"seed"`
	Digest     uint64   `json:"digest"`
	Registered int      `json:"registered"`
	Failed     int      `json:"failed"`
	Problems   []string `json:"problems"`
	Events     uint64   `json:"events"`
	RunS       float64  `json:"run_s"`
	AllocMB    float64  `json:"alloc_mb"`
	MaxRSSMB   float64  `json:"max_rss_mb"`
	AvgFCTus   float64  `json:"avg_fct_us"`
	P99FCTus   float64  `json:"p99_fct_us"`
}

// runRep is the child side: set up and run input sub of the seed, gate it,
// and print the rep as one JSON line.
func runRep(s spec, o options, sub int, w io.Writer) error {
	seed := subSeed(o.seed, sub)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := s.setup(seed, nil)
	if err != nil {
		return err
	}
	out := in.run()
	runtime.ReadMemStats(&after)
	probs := check(in, out, pinnedDigest(s.name, o.seed, sub))
	return json.NewEncoder(w).Encode(rep{
		Seed: seed, Digest: out.digest, Registered: out.registered, Failed: failedFlows(out, probs),
		Problems: probs, Events: out.events, RunS: out.runS,
		AllocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		AvgFCTus: out.avgFCTus, P99FCTus: out.p99FCTus,
	})
}

// spawnRep runs one rep in a child process of this executable and adds the
// child's peak RSS, which the kernel reports when it is reaped.
func spawnRep(s spec, o options, sub int) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	args := []string{"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-rep", fmt.Sprint(sub)}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return rep{}, fmt.Errorf("rep %d of %s: %w", sub, s.name, err)
	}
	var r rep
	if err := json.Unmarshal(b, &r); err != nil {
		return rep{}, fmt.Errorf("rep %d of %s: %w", sub, s.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.MaxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// endToEnd repeats set-up and run, one child process per repetition, cycling
// through the inputs: every input once, then input 0 again so that every run
// checks determinism, then further rounds while o.seconds allows another
// repetition. Before each repetition it times setupReps set-ups of the same
// input in this process. Each metric is the mean over inputs of the
// per-input median. Every run passes through the correctness gate, and every
// repeat of an input must reproduce its digest.
func endToEnd(s spec, o options, w io.Writer) (*result, error) {
	k := s.inputs
	setups := make([][]float64, k)
	runs := make([][]float64, k)
	rates := make([][]float64, k)
	allocs := make([][]float64, k)
	rss := make([][]float64, k)
	digests := make([]uint64, k)
	res := &result{Correct: true}

	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	var last time.Duration
	for i := 0; ; i++ {
		sub := i % k
		if i > k && time.Since(start)+last > budget {
			break
		}
		t0 := time.Now()
		repSetups := make([]float64, setupReps)
		for j := range repSetups {
			runtime.GC()
			ts := time.Now()
			if _, err := s.setup(subSeed(o.seed, sub), nil); err != nil {
				return nil, err
			}
			repSetups[j] = time.Since(ts).Seconds()
		}
		setups[sub] = append(setups[sub], repSetups...)
		r, err := spawnRep(s, o, sub)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		if digests[sub] == 0 {
			digests[sub] = r.Digest
		} else if r.Digest != digests[sub] {
			r.Problems = append(r.Problems, fmt.Sprintf("nondeterministic: digest %016x, earlier repeat %016x", r.Digest, digests[sub]))
			r.Failed = r.Registered
		}
		res.Attempted += r.Registered
		res.Failed += r.Failed
		if len(r.Problems) > 0 {
			res.Correct = false
		}
		fmt.Fprintf(w, "run %d seed %d digest %016x flows %d events %d setup_s %.6f run_s %.6f alloc_mb %.3f max_rss_mb %.3f fct_avg_us %.3f fct_p99_us %.3f problems %v\n",
			i, r.Seed, r.Digest, r.Registered, r.Events, median(repSetups), r.RunS, r.AllocMB, r.MaxRSSMB, r.AvgFCTus, r.P99FCTus, r.Problems)
		runs[sub] = append(runs[sub], r.RunS)
		rates[sub] = append(rates[sub], float64(r.Events)/r.RunS)
		allocs[sub] = append(allocs[sub], r.AllocMB)
		rss[sub] = append(rss[sub], r.MaxRSSMB)
	}
	res.Metrics = map[string]metric{
		"run_s":        {meanOfMedians(runs), "s"},
		"setup_s":      {meanOfMedians(setups), "s"},
		"events_per_s": {meanOfMedians(rates), "1/s"},
		"alloc_mb":     {meanOfMedians(allocs), "MB"},
		"max_rss_mb":   {meanOfMedians(rss), "MB"},
	}
	return res, nil
}

func meanOfMedians(xs [][]float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += median(x)
	}
	return sum / float64(len(xs))
}

func median(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
