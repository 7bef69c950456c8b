package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"packunpack/internal/transport"
)

// TestMain lets a test run this binary as packbench itself: with
// PACKBENCH_RUN_MAIN=1 in the environment, the process executes main on
// its command-line arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PACKBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProfilesWrittenOnRealBackend pins that -cpuprofile and
// -memprofile work on the real backend, whose run used to return
// before profiling started and left no files behind.
func TestProfilesWrittenOnRealBackend(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	cmd := exec.Command(os.Args[0], "-backend", "real", "-quick", "-cpuprofile", cpu, "-memprofile", mem)
	cmd.Env = append(os.Environ(), "PACKBENCH_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("packbench -backend real failed: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}

// TestSimOnlyFlagsFailFastUnderRealBackend pins the flag-hygiene
// contract: every sim-only flag must be rejected, by name, when the
// real backend is selected — never silently ignored.
func TestSimOnlyFlagsFailFastUnderRealBackend(t *testing.T) {
	for name := range simOnlyFlags {
		err := checkBackendFlags(transport.BackendReal, []string{name})
		if err == nil {
			t.Errorf("-%s under -backend real: want error, got nil", name)
			continue
		}
		if !strings.Contains(err.Error(), "-"+name) || !strings.Contains(err.Error(), "sim-only") {
			t.Errorf("-%s error does not name the flag as sim-only: %v", name, err)
		}
	}
}

// TestBackendNeutralFlagsPass: the flags the realbench make target uses
// must stay accepted, and sim runs accept everything.
func TestBackendNeutralFlagsPass(t *testing.T) {
	// Mirrors `make realbench` and the real perf-report CI step.
	for _, set := range [][]string{
		{"backend", "seed", "real-gate"},
		{"backend", "quick", "seed", "json"},
		{"backend", "metrics", "metrics-addr", "samples", "parallel", "out", "cpuprofile", "memprofile"},
	} {
		if err := checkBackendFlags(transport.BackendReal, set); err != nil {
			t.Errorf("real backend rejected %v: %v", set, err)
		}
	}
	if err := checkBackendFlags(transport.BackendSim, []string{"faults", "trace-dir", "plan-gate", "flight-dir", "exp"}); err != nil {
		t.Errorf("sim backend rejected sim flags: %v", err)
	}
}

// TestParsedCommandLineFailsFast runs the same flag.Visit plumbing main
// uses over a parsed FlagSet, end to end.
func TestParsedCommandLineFailsFast(t *testing.T) {
	fs := flag.NewFlagSet("packbench", flag.ContinueOnError)
	fs.String("backend", "sim", "")
	fs.String("faults", "", "")
	fs.String("exp", "all", "")
	if err := fs.Parse([]string{"-backend", "real", "-faults", "42:drop=0.01"}); err != nil {
		t.Fatal(err)
	}
	backend, err := transport.ParseBackend(fs.Lookup("backend").Value.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBackendFlags(backend, setFlagNames(fs)); err == nil {
		t.Fatal("-backend real -faults did not fail fast")
	} else if !strings.Contains(err.Error(), "-faults") {
		t.Fatalf("error does not name -faults: %v", err)
	}
}
