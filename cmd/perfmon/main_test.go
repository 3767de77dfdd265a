package main

// The monitor must not die with the thing it monitors: the sampling
// loop tolerates a server that is killed and restarted mid-run, marks
// missed samples, and exits non-zero only when every sample failed.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
)

const testCounter = "/threads{locality#0/total}/count/cumulative"

func startServer(t *testing.T, addr string, value int64) *parcel.Server {
	t.Helper()
	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative", HelpText: "tasks"})
	reg.MustRegister(c)
	c.Add(value)
	var srv *parcel.Server
	var err error
	// The restart path rebinds a just-released port; give the OS a few
	// tries before declaring failure.
	for attempt := 0; attempt < 50; attempt++ {
		srv, err = parcel.Serve(addr, reg, 0)
		if err == nil {
			return srv
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("Serve(%s): %v", addr, err)
	return nil
}

func TestSampleLoopSurvivesServerRestart(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 5)
	addr := srv.Addr()

	var stdout, stderr bytes.Buffer
	rc := make(chan int, 1)
	go func() {
		rc <- run([]string{
			"-addr", addr,
			"-counter", testCounter,
			"-n", "40", "-interval", "50ms",
			"-timeout", "300ms", "-retries", "1",
		}, &stdout, &stderr)
	}()

	// Kill the server mid-loop, leave it dead for a while, resurrect it
	// on the same address with a different counter value.
	time.Sleep(500 * time.Millisecond)
	srv.Close()
	time.Sleep(500 * time.Millisecond)
	srv2 := startServer(t, addr, 9)
	defer srv2.Close()

	var code int
	select {
	case code = <-rc:
	case <-time.After(30 * time.Second):
		t.Fatal("sampling loop did not finish")
	}
	out, errs := stdout.String(), stderr.String()
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (loop must survive the restart)\nstdout:\n%s\nstderr:\n%s", code, out, errs)
	}
	if !strings.Contains(out, "= 5") {
		t.Fatalf("no pre-restart samples:\n%s", out)
	}
	if !strings.Contains(out, "= 9") {
		t.Fatalf("no post-restart samples — loop never recovered:\n%s\nstderr:\n%s", out, errs)
	}
	// During the outage the last-known value is served as stale.
	if !strings.Contains(out, "stale") {
		t.Fatalf("no stale samples during the outage:\n%s\nstderr:\n%s", out, errs)
	}
}

func TestCSVExport(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 7)
	defer srv.Close()
	csv := filepath.Join(t.TempDir(), "samples.csv")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", srv.Addr(),
		"-counter", testCounter,
		"-n", "3", "-interval", "10ms", "-timeout", "500ms",
		"-csv", csv,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d, want header + 3 samples:\n%s", len(lines), data)
	}
	if lines[0] != "counter,timestamp,value,count,status" {
		t.Fatalf("csv header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 5 || fields[0] != testCounter || fields[2] != "7" {
			t.Fatalf("bad csv row %q", line)
		}
		if _, err := time.Parse(time.RFC3339Nano, fields[1]); err != nil {
			t.Fatalf("bad csv timestamp in %q: %v", line, err)
		}
	}
}

// TestCSVQuotesCounterNames: an arithmetics counter's name carries a
// comma; every -csv row still parses as exactly five fields with the
// full counter name in the first.
func TestCSVQuotesCounterNames(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 7)
	defer srv.Close()
	path := filepath.Join(t.TempDir(), "samples.csv")
	name := "/arithmetics/add@" + testCounter + "," + testCounter

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", srv.Addr(),
		"-counter", name,
		"-n", "2", "-interval", "10ms", "-timeout", "500ms",
		"-csv", path,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = 5
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("-csv output does not parse as 5 fields a row: %v", err)
	}
	if len(recs) != 3 { // header + 2 samples
		t.Fatalf("rows = %q, want header + 2", recs)
	}
	for _, rec := range recs[1:] {
		if rec[0] != name || rec[2] != "14" {
			t.Fatalf("row %q, want %s = 14", rec, name)
		}
	}
}

// syncBuffer lets the test read the stream while the loop writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestHTTPExport(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 11)
	defer srv.Close()

	var stdout, stderr syncBuffer
	rc := make(chan int, 1)
	go func() {
		rc <- run([]string{
			"-addr", srv.Addr(),
			"-counter", testCounter,
			"-n", "40", "-interval", "50ms", "-timeout", "500ms",
			"-http", "127.0.0.1:0",
		}, &stdout, &stderr)
	}()

	// The exporter prints its bound address on stderr.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no telemetry address announced:\n%s", stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if i := strings.Index(line, "http://"); i >= 0 {
				base = strings.Fields(line[i:])[0]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Wait until at least one sample landed, then check both endpoints.
	var body string
	for time.Now().Before(deadline) {
		res, err := http.Get(base + "/metrics")
		if err == nil {
			var sb strings.Builder
			buf := make([]byte, 32<<10)
			for {
				n, err := res.Body.Read(buf)
				sb.Write(buf[:n])
				if err != nil {
					break
				}
			}
			res.Body.Close()
			body = sb.String()
			if strings.Contains(body, "taskrt_threads_count_cumulative") {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(body, "# TYPE taskrt_threads_count_cumulative gauge") ||
		!strings.Contains(body, `taskrt_threads_count_cumulative{locality="0",instance="total"} 11`) {
		t.Fatalf("prometheus exposition malformed:\n%s", body)
	}

	res, err := http.Get(base + "/series")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var got struct {
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				V float64 `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.NewDecoder(res.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 1 || got.Series[0].Name != testCounter ||
		len(got.Series[0].Points) == 0 || got.Series[0].Points[0].V != 11 {
		t.Fatalf("series = %+v", got)
	}

	select {
	case code := <-rc:
		if code != 0 {
			t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sampling loop did not finish")
	}
}

func TestRepeatableCounterFlag(t *testing.T) {
	// Two -counter flags: both sampled every tick, one of them bound to
	// nothing degrades that slot without sinking the sample.
	reg := core.NewRegistry()
	for i, val := range []int64{5, 8} {
		c := core.NewRawCounter(
			core.Name{Object: "threads", Counter: "count/cumulative"}.
				WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...),
			core.Info{TypeName: "/threads/count/cumulative"})
		reg.MustRegister(c)
		c.Add(val)
	}
	srv, err := parcel.Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", srv.Addr(),
		"-counter", "/threads{locality#0/worker-thread#0}/count/cumulative",
		"-counter", "/threads{locality#0/worker-thread#1}/count/cumulative",
		"-counter", "/nosuch{locality#0/total}/counter",
		"-n", "3", "-interval", "5ms", "-timeout", "500ms",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if strings.Count(out, "= 5") != 3 || strings.Count(out, "= 8") != 3 {
		t.Fatalf("expected 3 samples of both counters:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "/nosuch{locality#0/total}/counter unavailable") {
		t.Fatalf("dead slot not reported:\n%s", stderr.String())
	}
}

func TestSampleLoopAllFailedExitsNonZero(t *testing.T) {
	// A server that accepts but never answers: with -stale=false every
	// sample times out, and only then is the run itself a failure.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", ln.Addr().String(),
		"-counter", testCounter,
		"-n", "3", "-interval", "10ms",
		"-timeout", "200ms", "-retries", "0", "-stale=false",
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with an unresponsive target\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "all 3 samples failed") {
		t.Fatalf("missing all-failed diagnostic:\n%s", stderr.String())
	}
}

func TestSingleMissedSampleStillSucceeds(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 5)
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", srv.Addr(),
		"-counter", "/nosuch{locality#0/total}/counter",
		"-n", "1", "-timeout", "300ms",
	}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("all samples failed but exit code is 0")
	}
	// Mixed run: first the bad counter fails, then plenty of good ones.
	stdout.Reset()
	stderr.Reset()
	code = run([]string{
		"-addr", srv.Addr(),
		"-counter", testCounter,
		"-n", "2", "-interval", "1ms", "-timeout", "300ms",
	}, &stdout, &stderr)
	if code != 0 || strings.Count(stdout.String(), "= 5") != 2 {
		t.Fatalf("clean run: code %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
}

func TestSpawnMode(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 0)
	defer srv.Close()
	actions := parcel.NewActionMap()
	if err := parcel.RegisterAction(actions, "double", func(n int) (int, error) {
		return 2 * n, nil
	}); err != nil {
		t.Fatal(err)
	}
	srv.WithActions(actions)

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", srv.Addr(),
		"-spawn", "double", "-arg", "21",
		"-deadline", "5s", "-timeout", "1s",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "42" {
		t.Fatalf("spawn result = %q, want 42", got)
	}

	// Failures are diagnosed, not swallowed: unknown action and
	// malformed -arg both exit non-zero with a reason.
	stderr.Reset()
	if code := run([]string{"-addr", srv.Addr(), "-spawn", "nope"},
		&stdout, &stderr); code == 0 {
		t.Fatal("unknown action exited 0")
	} else if !strings.Contains(stderr.String(), "unknown action") {
		t.Fatalf("unknown-action diagnostic missing:\n%s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"-addr", srv.Addr(), "-spawn", "double", "-arg", "{not json"},
		&stdout, &stderr); code != 2 {
		t.Fatalf("malformed -arg exit code = %d, want 2", code)
	}
}

// TestBudgetStretchesInterval: with a budget no loopback read can meet,
// the controller stretches the sampling interval once a window has
// passed, and says so on stderr.
func TestBudgetStretchesInterval(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 3)
	defer srv.Close()

	var stdout, stderr syncBuffer
	code := run([]string{
		"-addr", srv.Addr(),
		"-counter", testCounter,
		"-n", "10", "-interval", "200ms", "-timeout", "500ms",
		"-budget", "0.0001",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
	}
	if got := strings.Count(stdout.String(), "= 3"); got != 10 {
		t.Fatalf("samples = %d, want 10:\n%s", got, stdout.String())
	}
	if !strings.Contains(stderr.String(), "perfmon: budget: sampling interval ->") {
		t.Fatalf("budget never stretched the interval:\n%s", stderr.String())
	}
}

// TestFlightBurstOnStall: a target killed mid-run stalls the loop; the
// watchdog's stall warning arms the flight recorder, and the dump holds
// the burst frames.
func TestFlightBurstOnStall(t *testing.T) {
	srv := startServer(t, "127.0.0.1:0", 4)
	dump := filepath.Join(t.TempDir(), "flight.json")

	var stdout, stderr syncBuffer
	rc := make(chan int, 1)
	go func() {
		rc <- run([]string{
			"-addr", srv.Addr(),
			"-counter", testCounter,
			"-n", "30", "-interval", "50ms",
			"-timeout", "100ms", "-retries", "0", "-stale=false",
			"-watchdog", "200ms", "-flight", "-flight-dump", dump,
		}, &stdout, &stderr)
	}()
	time.Sleep(300 * time.Millisecond)
	srv.Close()

	select {
	case code := <-rc:
		if code != 0 {
			t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sampling loop did not finish")
	}
	if !strings.Contains(stderr.String(), "flight recorder bursting") {
		t.Fatalf("stall did not arm the flight recorder:\n%s", stderr.String())
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Frames int `json:"frames"`
		Burst  int `json:"burst_frames"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("flight dump is not JSON: %v", err)
	}
	if d.Burst == 0 || d.Frames < d.Burst {
		t.Fatalf("flight dump has %d frames, %d burst; want burst frames", d.Frames, d.Burst)
	}
}

// TestTreeMode: -tree ticks the simulated fleet -n times, printing one
// fold line per tick, and serves the overlay topology at /tree.
func TestTreeMode(t *testing.T) {
	var stdout, stderr syncBuffer
	rc := make(chan int, 1)
	go func() {
		rc <- run([]string{
			"-tree", "-fleet", "40", "-fanout", "4", "-tree-wire", "2",
			"-n", "2", "-http", "127.0.0.1:0",
		}, &stdout, &stderr)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no telemetry address announced:\n%s", stderr.String())
		}
		for _, line := range strings.Split(stderr.String(), "\n") {
			if i := strings.Index(line, "http://"); i >= 0 {
				base = strings.Fields(line[i:])[0]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := http.Get(base + "/tree")
	if err != nil {
		t.Fatal(err)
	}
	var topo any
	err = json.NewDecoder(res.Body).Decode(&topo)
	res.Body.Close()
	if err != nil || topo == nil {
		t.Fatalf("/tree is not a JSON topology: %v", err)
	}

	select {
	case code := <-rc:
		if code != 0 {
			t.Fatalf("exit code = %d\nstderr:\n%s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("tree loop did not finish")
	}
	if got := strings.Count(stdout.String(), "fold gen"); got != 2 {
		t.Fatalf("fold lines = %d, want 2:\n%s", got, stdout.String())
	}
}
