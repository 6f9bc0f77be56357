package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlcc/internal/cc"
	"mlcc/internal/sim"
	"mlcc/internal/topo"
)

// TestMain lets the test binary stand in for the command when the
// end-to-end pass spawns its per-repetition child processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile mirrors the parts of ../BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runMain runs the command on the short variant and decodes its last line.
func runMain(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"-short", "-root", "..", "-spans", filepath.Join(t.TempDir(), "spans.json")}, args...)
	if code := realMain(args, &out, &errOut); code != 0 {
		t.Fatalf("perfbench %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
			continue
		}
		if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestEveryMetricPrints runs each workload's short variant in both passes and
// checks the printed metrics are exactly those BENCHMARK.json names, with its
// units.
func TestEveryMetricPrints(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			e2e := runMain(t, "-workload", w.Name, "-seconds", "0.01", "-trace", "0")
			checkMetrics(t, "end_to_end", e2e.Metrics, bf.EndToEnd)
			for name, m := range e2e.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			layers := runMain(t, "-workload", w.Name, "-trace", "1")
			checkMetrics(t, "per_layer", layers.Metrics, bf.PerLayer)
		})
	}
}

func shortRun(t *testing.T, name string, wrapAlg func(topo.AlgFactory) topo.AlgFactory, trace bool) (*instance, *outcome) {
	t.Helper()
	s, err := lookup(name, true)
	if err != nil {
		t.Fatal(err)
	}
	var ts *traceSet
	if trace {
		ts = newTraceSet()
		wrapAlg = ts.wrapAlg
	}
	in, err := s.setup(defaultSeed, wrapAlg)
	if err != nil {
		t.Fatal(err)
	}
	if trace {
		ts.install(in.n)
		newSampler(in.n)
	}
	return in, in.run()
}

// TestDigestGateRejectsPerturbedDigest checks the gate passes the run's own
// digest and fails a perturbed one, counting every flow as failed.
func TestDigestGateRejectsPerturbedDigest(t *testing.T) {
	in, out := shortRun(t, "dumbbell-websearch-sharded", nil, false)
	if probs := check(in, out, out.digest); len(probs) != 0 {
		t.Fatalf("gate rejects the run's own digest: %v", probs)
	}
	probs := check(in, out, out.digest^1)
	if len(probs) != 1 || !strings.Contains(probs[0], "digest") {
		t.Fatalf("gate on a perturbed digest: %v, want one digest problem", probs)
	}
	if got := failedFlows(out, probs); got != out.registered || got == 0 {
		t.Fatalf("failed flows %d, want all %d", got, out.registered)
	}
}

// TestTracedDigestMatches checks the traced pass is passive: on every
// workload the traced run reproduces the untraced digest.
func TestTracedDigestMatches(t *testing.T) {
	for _, s := range workloads {
		t.Run(s.name, func(t *testing.T) {
			_, plain := shortRun(t, s.name, nil, false)
			_, traced := shortRun(t, s.name, nil, true)
			if plain.digest != traced.digest {
				t.Fatalf("traced digest %016x != untraced %016x", traced.digest, plain.digest)
			}
		})
	}
}

// closeless hides the wrapped sender's optional Close, as a decorator that
// forgot to forward it would.
type closeless struct{ cc.Sender }

// TestSenderCloseForwarded checks the DCQCN digest depends on the sender's
// Close reaching DCQCN (it cancels the rate timers there), so the traced
// digest equality above covers the decorator's forwarding.
func TestSenderCloseForwarded(t *testing.T) {
	const name = "twodc-hadoop-dcqcn"
	_, plain := shortRun(t, name, nil, false)
	_, traced := shortRun(t, name, nil, true)
	if plain.digest != traced.digest {
		t.Fatalf("traced digest %016x != untraced %016x", traced.digest, plain.digest)
	}
	drop := func(inner topo.AlgFactory) topo.AlgFactory {
		return func(eng *sim.Engine) cc.Algorithm {
			a := inner(eng)
			ns := a.NewSender
			a.NewSender = func(f cc.FlowInfo) cc.Sender { return closeless{ns(f)} }
			return a
		}
	}
	_, dropped := shortRun(t, name, drop, false)
	if dropped.digest == plain.digest {
		t.Fatal("dropping Close left the DCQCN digest unchanged; the equality check would not catch it")
	}
}
