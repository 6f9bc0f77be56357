package prof

import (
	"os"
	"path/filepath"
	"testing"
)

var sink []byte

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		sink = make([]byte, 1024)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
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

func TestStartEmptyPathsAreNoops(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// A bad path fails at Start, and a failed CPU profile leaves no profiling
// running: a second Start can still take the CPU profiler.
func TestStartBadPath(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing", "x.prof")
	if _, err := Start(missing, ""); err == nil {
		t.Fatal("Start accepted a CPU profile path in a missing directory")
	}
	if _, err := Start("", missing); err == nil {
		t.Fatal("Start accepted a memory profile path in a missing directory")
	}
	if _, err := Start(missing, filepath.Join(dir, "mem.prof")); err == nil {
		t.Fatal("Start accepted a CPU profile path in a missing directory")
	}
	stop, err := Start(filepath.Join(dir, "cpu.prof"), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
