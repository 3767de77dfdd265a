package parcel

// Loopback benchmarks of bulk remote sampling: K counters per sample
// through evaluate_bulk (one round trip) versus the per-counter loop (K
// round trips). TestWriteBulkBenchJSON persists the numbers into
// BENCH_taskrt.json (section "parcel_bulk") via scripts/bench.sh,
// alongside the local grain sweep.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/taskrt"
)

var bulkBenchKs = []int{1, 16, 128}

// newBulkBenchFixture builds a loopback server exposing n raw counters
// and a connected client, without the testing.T cleanup plumbing.
func newBulkBenchFixture(tb testing.TB, n int) ([]string, *Client) {
	tb.Helper()
	reg := core.NewRegistry()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		cn := core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...)
		c := core.NewRawCounter(cn, core.Info{TypeName: "/threads/count/cumulative"})
		c.Add(int64(i))
		reg.MustRegister(c)
		names[i] = cn.String()
	}
	return names, serveBench(tb, reg)
}

// newThreadsBenchFixture serves the first k /threads{locality#0/*}/*
// counters of an idle 16-worker taskrt runtime, the shape a remote
// monitor samples: large raw values (nanosecond times) and the scaling
// and count columns of the ratio counters ride every answer.
func newThreadsBenchFixture(tb testing.TB, k int) ([]string, *Client) {
	tb.Helper()
	rt := taskrt.New(taskrt.WithWorkers(16))
	tb.Cleanup(rt.Shutdown)
	reg := core.NewRegistry()
	if err := rt.RegisterCounters(reg); err != nil {
		tb.Fatal(err)
	}
	found, err := reg.Discover("/threads{locality#0/*}/*")
	if err != nil || len(found) < k {
		tb.Fatalf("Discover = %d names, %v; want at least %d", len(found), err, k)
	}
	names := make([]string, k)
	for i := range names {
		names[i] = found[i].String()
	}
	return names, serveBench(tb, reg)
}

// serveBench serves reg on loopback and returns a connected client.
func serveBench(tb testing.TB, reg *core.Registry) *Client {
	tb.Helper()
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		tb.Fatalf("Serve: %v", err)
	}
	tb.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr(), nil, 1)
	if err != nil {
		tb.Fatalf("Dial: %v", err)
	}
	tb.Cleanup(func() { cli.Close() })
	return cli
}

// BenchmarkEvaluateBulk measures one bulk sample of K counters over
// loopback, of raw counters (K=…) and of a taskrt runtime's /threads
// counters (threads/K=128); the round-trips/sample metric is exact (from
// the client's parcel meter) and must stay 1.
func BenchmarkEvaluateBulk(b *testing.B) {
	for _, k := range bulkBenchKs {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			names, cli := newBulkBenchFixture(b, k)
			benchBulkSet(b, cli, names)
		})
	}
	b.Run("threads/K=128", func(b *testing.B) {
		names, cli := newThreadsBenchFixture(b, 128)
		benchBulkSet(b, cli, names)
	})
}

// benchBulkSet times Evaluate of one bound set over names.
func benchBulkSet(b *testing.B, cli *Client, names []string) {
	set := cli.NewBulkSet(names)
	if _, err := set.Evaluate(false); err != nil { // bind outside the loop
		b.Fatal(err)
	}
	b.ReportAllocs()
	sentBefore := cli.meters.sent.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := set.Evaluate(false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rts := float64(cli.meters.sent.Load()-sentBefore) / float64(b.N)
	b.ReportMetric(rts, "round-trips/sample")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(names)), "ns/counter")
}

// BenchmarkEvaluatePerCounter is the pre-bulk access pattern — K
// Evaluate round trips per sample — kept as the comparison baseline.
func BenchmarkEvaluatePerCounter(b *testing.B) {
	for _, k := range bulkBenchKs {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			names, cli := newBulkBenchFixture(b, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, n := range names {
					if _, err := cli.Evaluate(n, false); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// bulkBenchPoint is one row of the "parcel_bulk" BENCH section.
type bulkBenchPoint struct {
	K                   int     `json:"k"`
	NsPerSample         float64 `json:"ns_per_sample"`
	RoundTripsPerSample float64 `json:"round_trips_per_sample"`
	PerCounterNs        float64 `json:"per_counter_loop_ns_per_sample"`
	PerCounterRTs       float64 `json:"per_counter_loop_round_trips"`
}

type bulkBenchReport struct {
	GeneratedBy string           `json:"generated_by"`
	Transport   string           `json:"transport"`
	CPU         string           `json:"cpu"`
	Points      []bulkBenchPoint `json:"points"`
}

// TestWriteBulkBenchJSON merges the bulk-sampling numbers into the
// "parcel_bulk" section of BENCH_taskrt.json (path in
// TASKRT_BENCH_JSON), preserving all other sections. Driven by
// scripts/bench.sh; skipped otherwise.
func TestWriteBulkBenchJSON(t *testing.T) {
	path := os.Getenv("TASKRT_BENCH_JSON")
	if path == "" {
		t.Skip("set TASKRT_BENCH_JSON=<path> to record the bulk sampling benchmark")
	}
	rep := bulkBenchReport{
		GeneratedBy: "go test -run TestWriteBulkBenchJSON (scripts/bench.sh)",
		Transport:   "tcp loopback",
		CPU:         runtime.GOARCH,
	}
	for _, k := range bulkBenchKs {
		names, cli := newBulkBenchFixture(t, k)
		set := cli.NewBulkSet(names)
		if _, err := set.Evaluate(false); err != nil {
			t.Fatal(err)
		}
		const samples = 400
		sentBefore := cli.meters.sent.Load()
		begin := time.Now()
		for i := 0; i < samples; i++ {
			if _, err := set.Evaluate(false); err != nil {
				t.Fatal(err)
			}
		}
		bulkNs := float64(time.Since(begin).Nanoseconds()) / samples
		bulkRTs := float64(cli.meters.sent.Load()-sentBefore) / samples

		sentBefore = cli.meters.sent.Load()
		begin = time.Now()
		for i := 0; i < samples; i++ {
			for _, n := range names {
				if _, err := cli.Evaluate(n, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		loopNs := float64(time.Since(begin).Nanoseconds()) / samples
		loopRTs := float64(cli.meters.sent.Load()-sentBefore) / samples

		rep.Points = append(rep.Points, bulkBenchPoint{
			K: k, NsPerSample: bulkNs, RoundTripsPerSample: bulkRTs,
			PerCounterNs: loopNs, PerCounterRTs: loopRTs,
		})
		t.Logf("K=%d: bulk %.0f ns/sample (%.0f RT), per-counter %.0f ns/sample (%.0f RT)",
			k, bulkNs, bulkRTs, loopNs, loopRTs)
	}

	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(prev, &doc)
	}
	cur, err := json.MarshalIndent(rep, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	doc["parcel_bulk"] = cur
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
