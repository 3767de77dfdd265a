package parcel

// Tests of the remote read path: bind_bulk/evaluate_bulk wire ops over
// bound sets and ad hoc name lists, the one-round-trip-per-sample
// guarantee (asserted against the client's own parcel meters),
// re-binding across reconnects, and stale partial results during a
// partition.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel/chaos"
)

// newBulkFixture starts a server over a registry with n raw counters
// and returns their full names with a connected client.
func newBulkFixture(t *testing.T, n int, opts ClientOptions) ([]string, []*core.RawCounter, *Server, *Client) {
	t.Helper()
	reg := core.NewRegistry()
	names := make([]string, n)
	counters := make([]*core.RawCounter, n)
	for i := 0; i < n; i++ {
		cn := core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...)
		c := core.NewRawCounter(cn, core.Info{TypeName: "/threads/count/cumulative"})
		c.Add(int64(100 + i))
		reg.MustRegister(c)
		names[i] = cn.String()
		counters[i] = c
	}
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, opts)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return names, counters, srv, cli
}

// TestEvaluateBulkOneRoundTrip is the acceptance criterion: after the
// one-time bind, sampling K counters costs exactly one request/response
// exchange, measured by the client's own /parcels count/sent meter.
func TestEvaluateBulkOneRoundTrip(t *testing.T) {
	const k = 16
	names, counters, _, cli := newBulkFixture(t, k, ClientOptions{})
	set := cli.NewBulkSet(names)

	// First evaluation pays the bind: two round trips.
	before := cli.meters.sent.Load()
	vals, err := set.Evaluate(false)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if got := cli.meters.sent.Load() - before; got != 2 {
		t.Fatalf("first bulk sample sent %d parcels, want 2 (bind + evaluate)", got)
	}
	if len(vals) != k {
		t.Fatalf("got %d values, want %d", len(vals), k)
	}
	for i, v := range vals {
		if v.Name != names[i] {
			t.Fatalf("value %d is %q, want %q (bulk results must keep bind order)", i, v.Name, names[i])
		}
		if v.Raw != int64(100+i) || v.Status != core.StatusValid {
			t.Fatalf("value %d = %+v", i, v)
		}
	}

	// Steady state: one round trip per sample, K counters each.
	const samples = 10
	before = cli.meters.sent.Load()
	for s := 0; s < samples; s++ {
		if _, err := set.Evaluate(false); err != nil {
			t.Fatalf("sample %d: %v", s, err)
		}
	}
	if got := cli.meters.sent.Load() - before; got != samples {
		t.Fatalf("%d bulk samples sent %d parcels, want exactly %d (1 round trip per sample)",
			samples, got, samples)
	}

	// Evaluate-and-reset applies remotely through the bulk path.
	if _, err := set.Evaluate(true); err != nil {
		t.Fatal(err)
	}
	for i, c := range counters {
		if c.Load() != 0 {
			t.Fatalf("counter %d not reset through bulk evaluate", i)
		}
	}
}

// TestEvaluateBulkConvenience: Client.EvaluateBulk ships its names with
// the request, so every call — the first included — is one round trip.
func TestEvaluateBulkConvenience(t *testing.T) {
	names, _, _, cli := newBulkFixture(t, 4, ClientOptions{})
	before := cli.meters.sent.Load()
	for i := 0; i < 5; i++ {
		vals, err := cli.EvaluateBulk(names, false)
		if err != nil {
			t.Fatalf("EvaluateBulk: %v", err)
		}
		if len(vals) != len(names) || vals[3].Name != names[3] || vals[3].Raw != 103 {
			t.Fatalf("EvaluateBulk = %+v", vals)
		}
	}
	if got := cli.meters.sent.Load() - before; got != 5 {
		t.Fatalf("5 EvaluateBulk calls sent %d parcels, want 5", got)
	}
}

// TestEvaluateBulkKeepsNoServerState: ad hoc name lists bind nothing on
// the server, so the per-connection set limit never applies to them —
// any number of distinct lists on one connection succeed at one parcel
// each.
func TestEvaluateBulkKeepsNoServerState(t *testing.T) {
	const calls = 100
	names, _, _, cli := newBulkFixture(t, calls, ClientOptions{})
	for i, name := range names {
		before := cli.meters.sent.Load()
		vals, err := cli.EvaluateBulk([]string{name}, false)
		if err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
		if vals[0].Raw != int64(100+i) {
			t.Fatalf("call %d = %+v", i+1, vals[0])
		}
		if got := cli.meters.sent.Load() - before; got != 1 {
			t.Fatalf("call %d sent %d parcels, want 1", i+1, got)
		}
	}
	// The connection's first explicit bind gets the first set id: no set
	// was bound before it.
	resp, err := cli.roundTripContext(context.Background(), request{Op: "bind_bulk", Names: names[:1]})
	if err != nil || resp.SetID != 1 {
		t.Fatalf("first bind_bulk after %d ad hoc reads = set %d, %v; want set 1", calls, resp.SetID, err)
	}
}

// TestEvaluateBulkLenientBinding: an unknown name degrades its slot to
// StatusCounterUnknown; the rest of the set reads normally.
func TestEvaluateBulkLenientBinding(t *testing.T) {
	names, _, _, cli := newBulkFixture(t, 2, ClientOptions{})
	withBad := append([]string{names[0]}, "/nosuch{locality#0/total}/count/thing", names[1])
	vals, err := cli.NewBulkSet(withBad).Evaluate(false)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if len(vals) != 3 {
		t.Fatalf("got %d values", len(vals))
	}
	if vals[0].Status != core.StatusValid || vals[2].Status != core.StatusValid {
		t.Fatalf("good slots = %v / %v", vals[0].Status, vals[2].Status)
	}
	if vals[1].Status != core.StatusCounterUnknown {
		t.Fatalf("bad slot status = %v, want CounterUnknown", vals[1].Status)
	}
}

// TestEvaluateBulkRebindAfterReconnect: the server-side set dies with
// the connection; the client must re-bind transparently and keep
// sampling at one round trip per sample afterwards.
func TestEvaluateBulkRebindAfterReconnect(t *testing.T) {
	names, _, _, cli := newBulkFixture(t, 8, ClientOptions{})
	set := cli.NewBulkSet(names)
	if _, err := set.Evaluate(false); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	firstID := set.id

	// Sever the connection behind the client's back.
	cli.drop(cli.link.Load(), io.ErrUnexpectedEOF)

	vals, err := set.Evaluate(false)
	if err != nil {
		t.Fatalf("post-reconnect Evaluate: %v", err)
	}
	if len(vals) != 8 || vals[0].Status != core.StatusValid {
		t.Fatalf("post-reconnect values = %+v", vals)
	}
	if set.id == firstID && set.gen == 1 {
		t.Fatal("set was not re-bound after reconnect")
	}
	// And steady state is one round trip again.
	before := cli.meters.sent.Load()
	if _, err := set.Evaluate(false); err != nil {
		t.Fatal(err)
	}
	if got := cli.meters.sent.Load() - before; got != 1 {
		t.Fatalf("post-rebind sample cost %d round trips, want 1", got)
	}
}

// TestEvaluateBulkStaleDuringPartition: a partitioned endpoint serves
// the whole set from the last-known-value cache, values tagged
// StatusStale, uncached names as explicit StatusCounterUnknown gaps.
func TestEvaluateBulkStaleDuringPartition(t *testing.T) {
	reg := core.NewRegistry()
	var names []string
	var counters []*core.RawCounter
	for i := 0; i < 3; i++ {
		cn := core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...)
		c := core.NewRawCounter(cn, core.Info{TypeName: "/threads/count/cumulative"})
		c.Add(int64(10 * (i + 1)))
		reg.MustRegister(c)
		names = append(names, cn.String())
		counters = append(counters, c)
	}
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	inj := chaos.New(chaos.Config{})
	cli, err := DialContext(context.Background(), srv.Addr(), nil, 1, ClientOptions{
		Timeout: 200 * time.Millisecond, Retries: 1,
		BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		BreakerThreshold: -1, ServeStale: true, Dialer: inj.Dialer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	// Warm the cache for the first two names only; the third never binds.
	warm := cli.NewBulkSet(names[:2])
	if _, err := warm.Evaluate(false); err != nil {
		t.Fatalf("warm-up: %v", err)
	}

	inj.Partition(true)
	counters[0].Add(1) // remote moves on; the cache cannot see it

	full := cli.NewBulkSet(names)
	vals, err := full.Evaluate(false)
	if err != nil {
		t.Fatalf("partitioned bulk evaluate returned error: %v", err)
	}
	if vals[0].Status != core.StatusStale || vals[0].Raw != 10 {
		t.Fatalf("cached slot = %+v, want stale 10", vals[0])
	}
	if vals[1].Status != core.StatusStale || vals[1].Raw != 20 {
		t.Fatalf("cached slot = %+v, want stale 20", vals[1])
	}
	if vals[2].Status != core.StatusCounterUnknown {
		t.Fatalf("uncached slot = %+v, want CounterUnknown gap", vals[2])
	}

	inj.Partition(false)
	healed, err := full.Evaluate(false)
	if err != nil {
		t.Fatalf("post-heal: %v", err)
	}
	if healed[0].Status != core.StatusValid || healed[0].Raw != 11 {
		t.Fatalf("post-heal slot = %+v, want fresh 11", healed[0])
	}
}

// TestBulkLimits: the server bounds per-connection bulk state and the
// length of any names list, bound or ad hoc.
func TestBulkLimits(t *testing.T) {
	names, _, _, cli := newBulkFixture(t, 1, ClientOptions{})
	ctx := context.Background()
	// Empty lists refused.
	for _, op := range []string{"bind_bulk", "evaluate_bulk"} {
		if _, err := cli.roundTripContext(ctx, request{Op: op}); err == nil {
			t.Fatalf("empty %s accepted", op)
		}
	}
	// Names lists bounded.
	long := make([]string, maxBulkNames+1)
	for i := range long {
		long[i] = names[0]
	}
	for _, op := range []string{"bind_bulk", "evaluate_bulk"} {
		if _, err := cli.roundTripContext(ctx, request{Op: op, Names: long}); err == nil {
			t.Fatalf("%s of %d names accepted", op, len(long))
		}
	}
	// Set count per connection bounded.
	for i := 0; i < maxBulkSetsPerConn; i++ {
		if _, err := cli.roundTripContext(ctx, request{Op: "bind_bulk", Names: names}); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
	}
	if _, err := cli.roundTripContext(ctx, request{Op: "bind_bulk", Names: names}); err == nil {
		t.Fatalf("bind beyond the %d-set limit accepted", maxBulkSetsPerConn)
	}
}

// TestStaleCacheOnlyWhenServed: the last-known-value cache exists for
// stale serving alone, so a default client fills none of it; with
// ServeStale every good slot is remembered.
func TestStaleCacheOnlyWhenServed(t *testing.T) {
	const k = 16
	for _, serve := range []bool{false, true} {
		names, _, _, cli := newBulkFixture(t, k, ClientOptions{ServeStale: serve})
		if _, err := cli.NewBulkSet(names).Evaluate(false); err != nil {
			t.Fatal(err)
		}
		want := 0
		if serve {
			want = k
		}
		cli.cacheMu.Lock()
		got := len(cli.cache)
		cli.cacheMu.Unlock()
		if got != want {
			t.Fatalf("ServeStale=%v: %d cached values after a K=%d sample, want %d", serve, got, k, want)
		}
	}
}

// TestBulkSampleCost pins what one K=128 sample of a bound set costs
// over loopback: one round trip, a few KB on the wire (values travel as
// columns, names stay home) and a bounded number of allocations, both
// ends in this one process.
func TestBulkSampleCost(t *testing.T) {
	const (
		k           = 128
		samples     = 50
		maxBytes    = 8 << 10
		maxAllocs   = 100
		allocSweeps = 100
	)
	names, _, _, cli := newBulkFixture(t, k, ClientOptions{})
	set := cli.NewBulkSet(names)
	sample := func() {
		if vals, err := set.Evaluate(false); err != nil || len(vals) != k {
			t.Fatalf("sample = %d values, %v", len(vals), err)
		}
	}
	sample() // the bind
	sent, received := cli.meters.sent.Load(), cli.meters.dataReceived.Load()
	for i := 0; i < samples; i++ {
		sample()
	}
	if rts := (cli.meters.sent.Load() - sent) / samples; rts != 1 {
		t.Errorf("%d round trips per sample, want 1", rts)
	}
	bytes := (cli.meters.dataReceived.Load() - received) / samples
	t.Logf("K=%d: %d bytes received per sample", k, bytes)
	if bytes > maxBytes {
		t.Errorf("%d bytes received per K=%d sample, want <= %d", bytes, k, maxBytes)
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	allocs := testing.AllocsPerRun(allocSweeps, sample)
	t.Logf("K=%d: %.0f allocations per sample", k, allocs)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per K=%d sample, want <= %d", allocs, k, maxAllocs)
	}
}

// slotCounter is a counter whose every read returns one preset value,
// so a test controls each field an evaluate_bulk answer carries.
type slotCounter struct {
	name core.Name
	v    core.Value
}

func (c *slotCounter) Name() core.Name       { return c.name }
func (c *slotCounter) Info() core.Info       { return core.Info{TypeName: c.name.TypeName()} }
func (c *slotCounter) Value(bool) core.Value { return c.v }
func (c *slotCounter) Reset()                {}

// answerFixture binds k slots of every kind an answer must carry and
// returns the names asked for with the bound set. Slot kinds cycle from
// offset: unknown names, non-canonical spellings (requested ≠ canonical),
// values named unlike their counter, non-zero scaling, count and
// inverse, negative raw values, zero, pre-epoch and far-apart times.
func answerFixture(k, offset int) ([]string, *core.BindSet) {
	reg := core.NewRegistry()
	now := time.Now()
	requested := make([]string, k)
	for i := range requested {
		cn := core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "worker-thread", int64(i))...)
		requested[i] = cn.String()
		v := core.Value{Name: cn.String(), Raw: int64(i), Time: now.Add(time.Duration(i) * time.Microsecond)}
		switch (i + offset) % 8 {
		case 0:
			v.Time = time.Time{}
			v.Raw = -1 << 62
		case 1:
			requested[i] = "/nosuch{locality#0/total}/count/gone" + strconv.Itoa(i)
		case 2:
			requested[i] = fmt.Sprintf("/threads{locality#00/worker-thread#%03d}/count/cumulative", i)
			v.Scaling, v.Status = 1000, core.StatusNewData
		case 3:
			v.Name += "/alias"
			v.Count, v.Inverse = -7, true
		case 4:
			v.Time = time.Unix(-12, 345) // before 1970
			v.Raw, v.Status = -int64(i), core.StatusInvalidData
		case 5:
			v.Time = time.Date(2250, 1, 2, 3, 4, 5, 6, time.UTC)
			v.Scaling, v.Count = -3, 1<<40
		case 6:
			v.Status = core.Status(99) // a status this build does not know travels as is
		}
		reg.MustRegister(&slotCounter{name: cn, v: v})
	}
	return requested, reg.BindSetLenient(requested)
}

// TestBulkAnswerRoundTrip: an evaluate_bulk answer, encoded and then
// decoded through real JSON, rebuilds the server's EvaluateBatch output
// field for field, against either base the client holds — a bound set's
// canonical names or an ad hoc read's requested names.
func TestBulkAnswerRoundTrip(t *testing.T) {
	for _, tc := range []struct{ k, offset int }{{1, 0}, {1, 1}, {1, 3}, {8, 0}, {maxBulkNames, 0}, {maxBulkNames, 5}} {
		requested, set := answerFixture(tc.k, tc.offset)
		want := set.EvaluateBatch(nil, false)
		for _, base := range [][]string{set.Names(), requested} {
			var ans bulkValues
			ans.encode(want, base)
			line, err := json.Marshal(response{ID: 1, Bulk: &ans})
			if err != nil {
				t.Fatal(err)
			}
			var resp response
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatal(err)
			}
			got, err := resp.Bulk.decode(base)
			if err != nil {
				t.Fatalf("K=%d: decode: %v", tc.k, err)
			}
			if len(got) != len(want) {
				t.Fatalf("K=%d: decoded %d values", tc.k, len(got))
			}
			for i := range want {
				w, g := want[i], got[i]
				if g.Name != w.Name || g.Raw != w.Raw || g.Scaling != w.Scaling || g.Inverse != w.Inverse ||
					g.Count != w.Count || g.Status != w.Status || !g.Time.Equal(w.Time) || g.Time.IsZero() != w.Time.IsZero() {
					t.Fatalf("K=%d offset %d slot %d: decoded %+v, want %+v", tc.k, tc.offset, i, g, w)
				}
			}
			if tc.k == maxBulkNames {
				t.Logf("K=%d: %d bytes, %d renamed", tc.k, len(line), len(ans.Renamed))
			}
		}
	}
}
