package repro

// End-to-end smoke tests of the four command-line tools: each binary is
// built once into a temp dir and exercised through its primary flows,
// including the remote-monitoring path across two real processes.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildTools compiles all cmd binaries once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		// Not t.TempDir(): the directory must outlive the first test
		// that triggers the build.
		binDir, buildErr = os.MkdirTemp("", "repro-cmd-*")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir, "./cmd/...")
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building cmd binaries: %v", buildErr)
	}
	return binDir
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(buildTools(t), name), args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCmdCounterls(t *testing.T) {
	out := runTool(t, "counterls")
	for _, want := range []string{"/threads/time/average", "/papi/OFFCORE_REQUESTS", "/statistics/average"} {
		if !strings.Contains(out, want) {
			t.Fatalf("counterls missing %q", want)
		}
	}
	out = runTool(t, "counterls", "-discover", "/threads{locality#0/worker-thread#*}/time/average")
	if !strings.Contains(out, "worker-thread#0") || !strings.Contains(out, "worker-thread#1") {
		t.Fatalf("discover output: %q", out)
	}
}

func TestCmdInncabs(t *testing.T) {
	out := runTool(t, "inncabs", "-bench", "nqueens", "-size", "test",
		"-threads", "2", "-samples", "2",
		"-print-counter", "/threads{locality#0/total}/count/cumulative")
	if !strings.Contains(out, "verification: OK") {
		t.Fatalf("inncabs output:\n%s", out)
	}
	if !strings.Contains(out, "/threads{locality#0/total}/count/cumulative,") {
		t.Fatalf("no counter CSV in output:\n%s", out)
	}
	// The std runtime path.
	out = runTool(t, "inncabs", "-bench", "fib", "-size", "test", "-runtime", "std", "-samples", "1")
	if !strings.Contains(out, "C++11 Std") || !strings.Contains(out, "verification: OK") {
		t.Fatalf("std run output:\n%s", out)
	}
	// Benchmark listing.
	out = runTool(t, "inncabs", "-list-benchmarks")
	if strings.Count(out, "\n") < 14 {
		t.Fatalf("listing too short:\n%s", out)
	}
}

// TestCmdInncabsDeadline: a bounded run of a kernel with no hand-written
// cancellable copy stops through the root task's scope — it exits 1,
// names the context's error, and reports the tasks dropped at dispatch.
func TestCmdInncabsDeadline(t *testing.T) {
	args := []string{"-bench", "sort", "-size", "huge", "-threads", "2",
		"-deadline", "200ms", "-samples", "1"}
	// Not runTool: the expected exit status is 1.
	out, err := exec.Command(filepath.Join(buildTools(t), "inncabs"), args...).CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("inncabs %v: err = %v, want exit status 1\n%s", args, err, out)
	}
	if want := "run cancelled after 0 complete sample(s): context deadline exceeded"; !strings.Contains(string(out), want) {
		t.Fatalf("output missing %q:\n%s", want, out)
	}
	m := regexp.MustCompile(`tasks dropped at dispatch: (\d+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("output has no dropped-task count:\n%s", out)
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Fatalf("no tasks dropped at dispatch:\n%s", out)
	}
}

func TestCmdRepro(t *testing.T) {
	out := runTool(t, "repro", "-list")
	if !strings.Contains(out, "table5") || !strings.Contains(out, "fig14") {
		t.Fatalf("repro -list:\n%s", out)
	}
	out = runTool(t, "repro", "-only", "fig1", "-size", "test")
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "HPX") {
		t.Fatalf("repro fig1:\n%s", out)
	}
	csvDir := t.TempDir()
	runTool(t, "repro", "-only", "table3", "-csv", csvDir)
	matches, err := filepath.Glob(filepath.Join(csvDir, "fig*.csv"))
	if err != nil || len(matches) != 14 {
		t.Fatalf("csv export: %v (%v)", matches, err)
	}
}

func TestCmdPerfmonAgainstLiveServer(t *testing.T) {
	// A real parcel server in this process, the perfmon binary as the
	// remote monitor.
	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative", HelpText: "tasks"})
	reg.MustRegister(c)
	c.Add(77)
	srv, err := parcel.Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out := runTool(t, "perfmon", "-addr", srv.Addr(), "-types")
	if !strings.Contains(out, "/threads/count/cumulative") {
		t.Fatalf("perfmon -types:\n%s", out)
	}
	out = runTool(t, "perfmon", "-addr", srv.Addr(),
		"-counter", "/threads{locality#0/total}/count/cumulative", "-n", "2", "-interval", "1ms")
	if strings.Count(out, "= 77") != 2 {
		t.Fatalf("perfmon samples:\n%s", out)
	}
}

func TestCmdInncabsProfile(t *testing.T) {
	out := runTool(t, "inncabs", "-bench", "fib", "-size", "test",
		"-threads", "2", "-samples", "1", "-profile")
	for _, want := range []string{
		"DAG profile", "work", "span (critical path)", "makespan",
		"logical (work/span)", "achieved (work/makespan)",
		"top spawn sites:", "fib.go:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdInncabsTrace(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out := runTool(t, "inncabs", "-bench", "sort", "-size", "test",
		"-threads", "2", "-samples", "1", "-trace", traceFile)
	if !strings.Contains(out, "task events written") {
		t.Fatalf("trace flag output:\n%s", out)
	}
	deadline := time.Now().Add(time.Second)
	for {
		if m, _ := filepath.Glob(traceFile); len(m) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("trace file not written")
		}
	}
}
