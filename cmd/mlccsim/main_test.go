package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as mlccsim itself: with
// MLCCSIM_AS_MAIN set, the binary runs the command with the given flags.
func TestMain(m *testing.M) {
	if os.Getenv("MLCCSIM_AS_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// mlccsim runs the command in a child process and returns its stdout without
// the wall-clock elapsed line, plus the per-flow FCT CSV it wrote.
func mlccsim(t *testing.T, args ...string) (summary, fct string) {
	t.Helper()
	csv := filepath.Join(t.TempDir(), "fct.csv")
	cmd := exec.Command(os.Args[0], append(args, "-fct", csv)...)
	cmd.Env = append(os.Environ(), "MLCCSIM_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("mlccsim %v: %v\n%s", args, err, stderr.String())
	}
	var kept []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "elapsed") {
			kept = append(kept, line)
		}
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(kept, "\n"), string(raw)
}

// Profiling is passive: a run with -cpuprofile and -memprofile writes
// non-empty profiles and prints the same summary and per-flow FCTs as a
// plain run.
func TestProfileFlagsKeepResults(t *testing.T) {
	args := []string{"-alg", "dcqcn", "-workload", "hadoop", "-duration", "1ms",
		"-longhaul", "200us", "-hosts-per-leaf", "4", "-shards", "2"}
	plainSum, plainFCT := mlccsim(t, args...)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profSum, profFCT := mlccsim(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if profSum != plainSum {
		t.Errorf("summary changed under profiling:\n--- plain\n%s\n--- profiled\n%s", plainSum, profSum)
	}
	if profFCT != plainFCT {
		t.Error("per-flow FCTs changed under profiling")
	}
	if strings.Count(plainFCT, "\n") < 2 {
		t.Fatalf("FCT CSV has no flows:\n%s", plainFCT)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// A profile path that cannot be created fails the command before the run.
func TestProfileBadPathFails(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-cpuprofile", filepath.Join(t.TempDir(), "missing", "cpu.prof"))
	cmd.Env = append(os.Environ(), "MLCCSIM_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "cpuprofile") {
		t.Errorf("error does not name the flag:\n%s", out)
	}
}
