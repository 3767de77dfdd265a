package agas

// The spawn router's failover policy, pinned deterministically first
// (each redirect/retry/cancel trigger in isolation, exact counter
// deltas), then the chaos soak: ~1k in-flight remote futures across two
// replicas under partition/heal mid-flight, all resolving within their
// deadline plus slack, with the accounting invariant
// spawned == completed + failed + cancelled holding exactly.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parcel"
	"repro/internal/parcel/chaos"
	"repro/internal/taskrt"
)

// replica is one action-serving locality for router tests.
type replica struct {
	id      int64
	actions *parcel.ActionMap
	srv     *parcel.Server
	inj     *chaos.Injector
	cli     *parcel.Client
}

// newReplica starts a server (locality id) reached through a chaos
// injector and returns the wired pieces.
func newReplica(t *testing.T, id int64, seed int64, cfg chaos.Config) *replica {
	t.Helper()
	cfg.Seed = seed
	reg := core.NewRegistry()
	srv, err := parcel.ServeOptions("127.0.0.1:0", reg, id, parcel.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	actions := parcel.NewActionMap()
	srv.WithActions(actions)
	inj := chaos.New(cfg)
	cli, err := parcel.DialContext(context.Background(), srv.Addr(), nil, id,
		parcel.ClientOptions{Timeout: 2 * time.Second, Dialer: inj.Dialer()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return &replica{id: id, actions: actions, srv: srv, inj: inj, cli: cli}
}

// newRouter binds the replicas into a resolver with remote-spawn
// counters registered under monitor locality 9.
func newRouter(t *testing.T, reps ...*replica) (*Resolver, *core.Registry) {
	t.Helper()
	r := NewResolver()
	for _, rep := range reps {
		if err := r.BindRemote(rep.id, rep.cli); err != nil {
			t.Fatal(err)
		}
	}
	reg := core.NewRegistry()
	if err := r.EnableRemoteCounters(reg, 9); err != nil {
		t.Fatal(err)
	}
	return r, reg
}

// remoteCount reads one /remote/count/* counter of the monitor
// locality.
func remoteCount(t *testing.T, reg *core.Registry, name string) int64 {
	t.Helper()
	v, err := reg.Evaluate("/runtime{locality#9/total}/remote/count/"+name, false)
	if err != nil {
		t.Fatal(err)
	}
	return v.Raw
}

func registerEcho(t *testing.T, rep *replica) {
	t.Helper()
	if err := parcel.RegisterActionCtx(rep.actions, "echo",
		func(_ context.Context, n int) (int, error) { return n, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnRemoteRoutesAndCounts(t *testing.T) {
	rep := newReplica(t, 0, 1, chaos.Config{})
	registerEcho(t, rep)
	r, reg := newRouter(t, rep)
	if err := r.BindActions(0, "echo"); err != nil {
		t.Fatal(err)
	}
	f := SpawnRemote[int, int](r, "echo", 7)
	v, err := f.Get()
	if err != nil || v != 7 {
		t.Fatalf("echo = %d, %v", v, err)
	}
	for name, want := range map[string]int64{
		"spawned": 1, "completed": 1,
		"failed": 0, "retried": 0, "redirected": 0, "cancelled": 0,
	} {
		if got := remoteCount(t, reg, name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestSpawnRemoteRedirectsOffMissingAction(t *testing.T) {
	// Replica 0 is *claimed* to register "echo" but does not — the
	// typed ErrActionUnknown proves the spawn never started there, so
	// the router must move to replica 1 under the same key.
	rep0 := newReplica(t, 0, 2, chaos.Config{})
	rep1 := newReplica(t, 1, 3, chaos.Config{})
	registerEcho(t, rep1)
	r, reg := newRouter(t, rep0, rep1)
	if err := r.BindActions(0, "echo"); err != nil {
		t.Fatal(err)
	}
	if err := r.BindActions(1, "echo"); err != nil {
		t.Fatal(err)
	}
	f := SpawnRemote[int, int](r, "echo", 11)
	v, err := f.Get()
	if err != nil || v != 11 {
		t.Fatalf("echo = %d, %v", v, err)
	}
	for name, want := range map[string]int64{
		"spawned": 1, "completed": 1, "redirected": 1, "retried": 0, "failed": 0,
	} {
		if got := remoteCount(t, reg, name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestSpawnRemoteFailsOverAcrossPartition(t *testing.T) {
	rep0 := newReplica(t, 0, 4, chaos.Config{})
	rep1 := newReplica(t, 1, 5, chaos.Config{})
	registerEcho(t, rep0)
	registerEcho(t, rep1)
	r, reg := newRouter(t, rep0, rep1)
	for id := int64(0); id < 2; id++ {
		if err := r.BindActions(id, "echo"); err != nil {
			t.Fatal(err)
		}
	}
	// Cut replica 0 off mid-life (its client already holds a live
	// connection): the spawn's write fails ambiguously, the reconnect
	// is refused typed (DialError), and the router moves to replica 1.
	rep0.inj.Partition(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f := SpawnRemoteCtx[int, int](ctx, r, "echo", 23)
	v, err := f.GetContext(ctx)
	if err != nil || v != 23 {
		t.Fatalf("echo across partition = %d, %v", v, err)
	}
	if got := remoteCount(t, reg, "completed"); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
	if got := remoteCount(t, reg, "redirected"); got != 1 {
		t.Fatalf("redirected = %d, want 1", got)
	}
	if got := remoteCount(t, reg, "cancelled"); got != 0 {
		t.Fatalf("cancelled = %d, want 0", got)
	}
}

func TestSpawnRemoteRetriesSameReplicaOnAmbiguousFault(t *testing.T) {
	rep := newReplica(t, 0, 6, chaos.Config{})
	var mu sync.Mutex
	execs := 0
	if err := parcel.RegisterActionCtx(rep.actions, "once",
		func(_ context.Context, _ struct{}) (int, error) {
			mu.Lock()
			execs++
			n := execs
			mu.Unlock()
			return n, nil
		}); err != nil {
		t.Fatal(err)
	}
	r, reg := newRouter(t, rep)
	if err := r.BindActions(0, "once"); err != nil {
		t.Fatal(err)
	}
	// Warm the connection, then lose exactly one frame: the spawn op's
	// outcome is ambiguous, so the router re-issues the SAME key to the
	// SAME replica — dedupe makes that exactly-once.
	if _, err := rep.cli.Types(); err != nil {
		t.Fatal(err)
	}
	rep.inj.ForceDrop(1)
	f := SpawnRemote[struct{}, int](r, "once", struct{}{})
	v, err := f.Get()
	if err != nil || v != 1 {
		t.Fatalf("once = %d, %v (want exactly-once)", v, err)
	}
	if got := remoteCount(t, reg, "retried"); got != 1 {
		t.Fatalf("retried = %d, want 1", got)
	}
	if got := remoteCount(t, reg, "redirected"); got != 0 {
		t.Fatalf("redirected = %d, want 0", got)
	}
	if got := remoteCount(t, reg, "completed"); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
}

func TestSpawnRemoteNoReplicaResolvesCancelled(t *testing.T) {
	rep := newReplica(t, 0, 7, chaos.Config{})
	r, reg := newRouter(t, rep)

	// Nothing registers the action at all.
	start := time.Now()
	f := SpawnRemote[int, int](r, "ghost", 1)
	if err := f.Err(); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("error = %v, want ErrNoReplica", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("no-replica spawn took the slow path; must fail fast, never hang")
	}

	// Every claimed replica is ruled out typed (action unknown on the
	// wire): the future still resolves, cancelled, carrying the last
	// replica failure.
	if err := r.BindActions(0, "ghost"); err != nil {
		t.Fatal(err)
	}
	f = SpawnRemote[int, int](r, "ghost", 1)
	err := f.Err()
	if !errors.Is(err, ErrNoReplica) || !errors.Is(err, parcel.ErrActionUnknown) {
		t.Fatalf("error = %v, want ErrNoReplica wrapping ErrActionUnknown", err)
	}
	if got := remoteCount(t, reg, "cancelled"); got != 2 {
		t.Fatalf("cancelled = %d, want 2", got)
	}
	if got := remoteCount(t, reg, "spawned"); got != 2 {
		t.Fatalf("spawned = %d, want 2", got)
	}
}

func TestSpawnRemoteUnderTaskScope(t *testing.T) {
	// The taskrt integration: a task body hands its ambient cancellation
	// scope (Runtime.CurrentContext) to SpawnRemoteCtx, so cancelling
	// the local task tree cancels the remote spawn too.
	rep := newReplica(t, 0, 8, chaos.Config{})
	bodySawCancel := make(chan struct{})
	if err := parcel.RegisterActionCtx(rep.actions, "stall",
		func(ctx context.Context, _ struct{}) (int, error) {
			<-ctx.Done()
			close(bodySawCancel)
			return 0, ctx.Err()
		}); err != nil {
		t.Fatal(err)
	}
	r, reg := newRouter(t, rep)
	if err := r.BindActions(0, "stall"); err != nil {
		t.Fatal(err)
	}

	rt := taskrt.New(taskrt.WithWorkers(2))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	fut := taskrt.SpawnWith(rt, taskrt.SpawnOptions{Ctx: ctx}, func() error {
		rf := SpawnRemoteCtx[struct{}, int](rt.CurrentContext(), r, "stall", struct{}{})
		return rf.Err()
	})
	time.Sleep(100 * time.Millisecond)
	cancel() // cancel the task tree, not the remote directly
	err, terr := fut.GetErr()
	if terr != nil {
		t.Fatal(terr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("remote spawn under cancelled scope = %v", err)
	}
	select {
	case <-bodySawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("remote body kept running after local task-scope cancel")
	}
	if got := remoteCount(t, reg, "cancelled"); got != 1 {
		t.Fatalf("cancelled = %d, want 1", got)
	}
}

func TestUnbindRacesSpawnAndEvaluate(t *testing.T) {
	// Unbind must be race-clean against in-flight routing, and the
	// losers must see typed errors (ErrUnknownLocality, ErrNoReplica) —
	// never a panic, a hang, or an untyped failure.
	rep := newReplica(t, 0, 9, chaos.Config{})
	registerEcho(t, rep)
	counterName := fmt.Sprintf("/parcels{locality#%d/total}/count/sent", rep.id)

	const rounds = 40
	for i := 0; i < rounds; i++ {
		r := NewResolver()
		if err := r.BindRemote(0, rep.cli); err != nil {
			t.Fatal(err)
		}
		if err := r.BindActions(0, "echo"); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			f := SpawnRemote[int, int](r, "echo", i)
			err := f.Err()
			if err != nil && !errors.Is(err, ErrNoReplica) && !errors.Is(err, parcel.ErrSpawnCancelled) {
				t.Errorf("spawn vs unbind: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			vals := r.EvaluateAcross([]string{counterName}, false)
			if len(vals) != 1 {
				t.Errorf("EvaluateAcross returned %d values", len(vals))
			}
			// A lost race shows up as a gap value, never an error escape.
		}()
		go func() {
			defer wg.Done()
			r.Unbind(0)
		}()
		wg.Wait()
		if _, err := r.Resolve(0); !errors.Is(err, ErrUnknownLocality) {
			t.Fatalf("post-unbind Resolve = %v, want ErrUnknownLocality", err)
		}
		if hosts := r.ActionHosts("echo"); len(hosts) != 0 {
			t.Fatalf("post-unbind placements = %v, want none", hosts)
		}
	}
}

// TestChaosSoakRemoteSpawns is the acceptance soak: ~1k in-flight
// remote futures against two replicas whose links partition and heal
// mid-flight, every future resolving within its deadline plus slack,
// with the counter invariant spawned == completed + failed + cancelled
// holding exactly at quiesce.
func TestChaosSoakRemoteSpawns(t *testing.T) {
	const (
		fan      = 1000
		deadline = 2 * time.Second
		slack    = 8 * time.Second // poller patience + scheduling headroom
	)
	mix := chaos.Config{DropProb: 0.01, CorruptProb: 0.005}
	rep0 := newReplica(t, 0, 101, mix)
	rep1 := newReplica(t, 1, 102, mix)
	for _, rep := range []*replica{rep0, rep1} {
		if err := parcel.RegisterActionCtx(rep.actions, "work",
			func(ctx context.Context, n int) (int, error) {
				select {
				case <-time.After(time.Duration(n%10) * time.Millisecond):
					return n * 2, nil
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}); err != nil {
			t.Fatal(err)
		}
	}
	r, reg := newRouter(t, rep0, rep1)
	for id := int64(0); id < 2; id++ {
		if err := r.BindActions(id, "work"); err != nil {
			t.Fatal(err)
		}
	}

	// Partition one side at a time, healing between cuts, for the whole
	// flight window.
	stop := make(chan struct{})
	var togglerWG sync.WaitGroup
	togglerWG.Add(1)
	go func() {
		defer togglerWG.Done()
		victims := []*chaos.Injector{rep0.inj, rep1.inj}
		for i := 0; ; i++ {
			v := victims[i%2]
			v.Partition(true)
			select {
			case <-time.After(120 * time.Millisecond):
			case <-stop:
				v.Partition(false)
				return
			}
			v.Partition(false)
			select {
			case <-time.After(80 * time.Millisecond):
			case <-stop:
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	futs := make([]*parcel.RemoteFuture[int], fan)
	for i := range futs {
		futs[i] = SpawnRemoteCtx[int, int](ctx, r, "work", i)
	}

	completed, failed, cancelledN := 0, 0, 0
	guard, guardCancel := context.WithTimeout(context.Background(), deadline+slack)
	defer guardCancel()
	for i, f := range futs {
		v, err := f.GetContext(guard)
		switch {
		case err == nil:
			if v != i*2 {
				t.Fatalf("work(%d) = %d", i, v)
			}
			completed++
		case errors.Is(err, context.DeadlineExceeded) && guard.Err() != nil:
			t.Fatalf("future %d unresolved past deadline+slack: HANG", i)
		case errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, context.Canceled),
			errors.Is(err, parcel.ErrSpawnCancelled),
			errors.Is(err, ErrNoReplica):
			cancelledN++
		default:
			failed++
		}
	}
	close(stop)
	togglerWG.Wait()

	if completed == 0 {
		t.Fatal("no spawn completed under chaos — transport never worked")
	}
	t.Logf("soak: %d completed, %d failed, %d cancelled; faults: %+v / %+v; redirected=%d retried=%d",
		completed, failed, cancelledN, rep0.inj.Stats(), rep1.inj.Stats(),
		remoteCount(t, reg, "redirected"), remoteCount(t, reg, "retried"))

	// The accounting invariant, exactly: every spawned future booked one
	// terminal counter, matching what the futures themselves reported.
	if got := remoteCount(t, reg, "spawned"); got != fan {
		t.Fatalf("spawned = %d, want %d", got, fan)
	}
	gotCompleted := remoteCount(t, reg, "completed")
	gotFailed := remoteCount(t, reg, "failed")
	gotCancelled := remoteCount(t, reg, "cancelled")
	if gotCompleted+gotFailed+gotCancelled != fan {
		t.Fatalf("completed %d + failed %d + cancelled %d != spawned %d",
			gotCompleted, gotFailed, gotCancelled, fan)
	}
	if gotCompleted != int64(completed) || gotFailed != int64(failed) || gotCancelled != int64(cancelledN) {
		t.Fatalf("counters (%d/%d/%d) disagree with future outcomes (%d/%d/%d)",
			gotCompleted, gotFailed, gotCancelled, completed, failed, cancelledN)
	}
}
