package taskrt

// Causal task tracing: when enabled, the runtime records one event per
// executed task — including the task's identity, its parent in the
// spawn tree, the call site that spawned it, and the worker it was
// stolen from — into a bounded in-memory buffer. The recorded events
// form the task DAG: AnalyzeTrace replays it post-mortem for work,
// span (critical path) and logical-parallelism metrics (the TASKPROF
// quantities), and WriteChromeTrace exports it in the Chrome
// trace-event format with Perfetto flow arrows from spawn to run.
//
// This is the post-mortem complement the paper contrasts with in-situ
// counters: counters answer questions at runtime; the trace
// reconstructs the schedule afterwards. Tracing is off by default; the
// tracing-off hot path is unchanged (one atomic load per task).

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// siteDepth is how many program-counter frames are captured at each
// spawn; the spawn site is the innermost captured frame outside the
// runtime (and outside any registered wrapper packages).
const siteDepth = 6

// TraceEvent is one executed task.
type TraceEvent struct {
	// ID is the task id, unique and increasing within one tracing
	// session (ids start at 1). 0 means the task was spawned while
	// tracing was off and has no identity.
	ID int64
	// Parent is the id of the task that spawned this one; 0 for tasks
	// spawned from outside any traced task (roots).
	Parent int64
	// Worker is the executing worker id.
	Worker int
	// SpawnWorker is the worker whose task spawned this one; -1 when
	// the spawn came from a goroutine outside the pool.
	SpawnWorker int
	// StolenFrom is the worker this task was stolen from, when the
	// executing worker obtained it by work stealing; -1 otherwise.
	StolenFrom int
	// Start is the task's begin time.
	Start time.Time
	// SpawnTime is when the task was spawned (queued); the interval to
	// Start is queueing delay plus dispatch.
	SpawnTime time.Time
	// Duration is the task's own execution time (nested inline tasks
	// excluded, as in the counters).
	Duration time.Duration
	// Inline marks tasks executed inline (Fork/Sync or help-first
	// waiting) rather than from the scheduling loop.
	Inline bool
	// Site is the source location of the spawn call ("file.go:123"),
	// resolved lazily when the events are retrieved. Empty for tasks
	// recorded without identity.
	Site string

	// sitePCs is the raw captured spawn stack, resolved into Site at
	// retrieval time so the spawn hot path never touches the symbol
	// table.
	sitePCs [siteDepth]uintptr
}

// taskMeta is the causal identity a task carries while tracing is
// enabled. It is allocated per spawn only when a tracer is installed;
// with tracing off tasks carry a nil meta and the spawn path is
// unchanged. session is the tracer that issued id: the task's event
// lands there whichever session is current when the task ends, so ids
// stay unique within a session.
type taskMeta struct {
	session     *tracer
	id          int64
	parent      int64
	spawnNs     int64
	spawnWorker int32
	stolenFrom  int32
	sitePCs     [siteDepth]uintptr
}

// tracer is one tracing session's bounded event sink. Workers stage
// their events beside their counters and worker.publish appends each
// block under mu, so a reader takes mu alone and never reaches into a
// worker.
type tracer struct {
	mu      sync.Mutex
	events  []TraceEvent
	limit   int
	dropped atomic.Int64
	// ids hands out task identities for this session.
	ids atomic.Int64
}

const defaultTraceLimit = 1 << 20

// EnableTracing starts recording task events (up to limit events;
// pass 0 for the 1M default). Re-enabling clears the buffer and
// restarts task ids from 1.
func (rt *Runtime) EnableTracing(limit int) {
	if limit <= 0 {
		limit = defaultTraceLimit
	}
	rt.trace.Store(&tracer{limit: limit})
}

// DisableTracing stops recording; recorded events remain retrievable
// until the next EnableTracing.
func (rt *Runtime) DisableTracing() {
	if t := rt.trace.Swap(nil); t != nil {
		rt.lastTrace.Store(t)
	}
}

// TraceEvents returns a copy of the recorded events (from the live
// buffer if tracing is on, else from the last disabled session) and the
// number of events dropped at the buffer limit. Spawn sites are
// resolved to "file.go:line" strings in the returned copy. A worker's
// events arrive with its counters in worker.publish, so the copy lags a
// busy worker as count/cumulative does and is complete once the worker
// idles or the runtime has shut down.
func (rt *Runtime) TraceEvents() ([]TraceEvent, int64) {
	t := rt.currentOrLastTracer()
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	out := append([]TraceEvent(nil), t.events...)
	dropped := t.dropped.Load()
	t.mu.Unlock()
	for i := range out {
		out[i].Site = resolveSite(out[i].sitePCs)
	}
	return out, dropped
}

// TraceDropped returns the number of events dropped at the buffer
// limit in the current (or last) tracing session. It backs the
// /runtime{locality#L/total}/trace/dropped counter, so a saturated
// trace buffer is visible through the same plane as everything else.
func (rt *Runtime) TraceDropped() int64 {
	if t := rt.currentOrLastTracer(); t != nil {
		return t.dropped.Load()
	}
	return 0
}

// resetTraceDropped clears the drop count (evaluate-and-reset).
func (rt *Runtime) resetTraceDropped() {
	if t := rt.currentOrLastTracer(); t != nil {
		t.dropped.Store(0)
	}
}

func (rt *Runtime) currentOrLastTracer() *tracer {
	if t := rt.trace.Load(); t != nil {
		return t
	}
	return rt.lastTrace.Load()
}

// newMeta assigns a task identity for one spawn: an id from the
// session counter, the spawning task (the parent, when it has an id in
// this session) and worker, the spawn time, and the spawn stack the
// caller captured (a batch captures it once and stamps every member
// with it).
func (t *tracer) newMeta(w *worker, nowNs int64, pcs [siteDepth]uintptr) *taskMeta {
	m := &taskMeta{
		session:     t,
		id:          t.ids.Add(1),
		spawnNs:     nowNs,
		spawnWorker: -1,
		stolenFrom:  -1,
		sitePCs:     pcs,
	}
	if w != nil {
		if p := w.curMeta; p != nil && p.session == t {
			m.parent = p.id
		}
		m.spawnWorker = int32(w.id)
	}
	return m
}

// add appends a published block of events, counting whatever the limit
// rejects.
func (t *tracer) add(evs []TraceEvent) {
	t.mu.Lock()
	n := min(len(evs), t.limit-len(t.events))
	t.events = append(t.events, evs[:n]...)
	t.dropped.Add(int64(len(evs) - n))
	t.mu.Unlock()
}

// stageEvent stages the event of a task that ran on w from begin for
// own ns beside the task's counters; worker.publish adds it with the
// counters of the same tasks. The event belongs to the session of the
// task's identity m, or to the current session tr for a task without
// one. Events staged for another session are published first, so a
// re-enable or DisableTracing in mid-block moves no event between
// sessions.
func (w *worker) stageEvent(tr *tracer, m *taskMeta, begin, own int64, inline bool) {
	ev := TraceEvent{
		Worker:      w.id,
		SpawnWorker: -1,
		StolenFrom:  -1,
		Start:       time.Unix(0, begin),
		Duration:    time.Duration(own),
		Inline:      inline,
	}
	if m != nil {
		ev.ID = m.id
		ev.Parent = m.parent
		ev.SpawnWorker = int(m.spawnWorker)
		ev.StolenFrom = int(m.stolenFrom)
		ev.SpawnTime = time.Unix(0, m.spawnNs)
		ev.sitePCs = m.sitePCs
		tr = m.session
	}
	if w.traceTo != nil && w.traceTo != tr {
		w.publish()
	}
	w.traceTo = tr
	w.traceBuf = append(w.traceBuf, ev)
}

// ---------------------------------------------------------------------------
// Spawn-site resolution.

// taskrtPkgPrefix is this package's import-path prefix ("repro/internal/
// taskrt."), computed from a live function symbol so the skip logic
// survives module renames.
var taskrtPkgPrefix = func() string {
	pc, _, _, ok := runtime.Caller(0)
	if !ok {
		return "taskrt."
	}
	name := runtime.FuncForPC(pc).Name()
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		if j := strings.IndexByte(name[i:], '.'); j >= 0 {
			return name[:i+j+1]
		}
	}
	return "taskrt."
}()

var (
	siteSkipMu       sync.RWMutex
	siteSkipPrefixes []string
	// siteCache memoises resolved spawn stacks; program counters are
	// stable for the process lifetime.
	siteCache sync.Map // [siteDepth]uintptr -> string
)

// RegisterSiteSkip adds a function-name prefix (typically a package
// path like "repro/internal/inncabs.(*HPX)") whose frames are skipped
// when resolving spawn sites. Runtime adapters that wrap Spawn register
// themselves so traces attribute tasks to the caller of the wrapper,
// not the wrapper.
func RegisterSiteSkip(prefix string) {
	if prefix == "" {
		return
	}
	siteSkipMu.Lock()
	siteSkipPrefixes = append(siteSkipPrefixes, prefix)
	siteSkipMu.Unlock()
}

func siteSkipped(fn string) bool {
	if strings.HasPrefix(fn, taskrtPkgPrefix) {
		return true
	}
	siteSkipMu.RLock()
	defer siteSkipMu.RUnlock()
	for _, p := range siteSkipPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// resolveSite turns a captured spawn stack into "file.go:line": the
// innermost frame outside the runtime and the registered wrappers, or
// the outermost captured frame when every frame is internal.
func resolveSite(pcs [siteDepth]uintptr) string {
	if pcs[0] == 0 {
		return ""
	}
	if s, ok := siteCache.Load(pcs); ok {
		return s.(string)
	}
	n := 0
	for n < len(pcs) && pcs[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(pcs[:n])
	site, fallback := "", ""
	for {
		fr, more := frames.Next()
		if fr.File != "" {
			loc := filepath.Base(fr.File) + ":" + strconv.Itoa(fr.Line)
			fallback = loc
			// Frames in _test.go files are user code even when their
			// package matches a skip prefix (in-package tests).
			if strings.HasSuffix(fr.File, "_test.go") || !siteSkipped(fr.Function) {
				site = loc
				break
			}
		}
		if !more {
			break
		}
	}
	if site == "" {
		site = fallback
	}
	siteCache.Store(pcs, site)
	return site
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.

// chromeEvent is the trace-event JSON schema (phase "X" = complete
// event; "M" = metadata; "s"/"f" = flow start/finish; ts/dur in
// microseconds).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// externalTid is the synthetic thread id used for spawns that came
// from goroutines outside the pool.
const externalTid = 1 << 20

// WriteChromeTrace serialises events in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev). Timestamps are relative to the
// earliest event. Each worker appears as a named thread
// ("worker-0".."worker-N"); tasks with identity are linked by flow
// arrows from their spawn point to their execution slice, so Perfetto
// draws the task DAG over the schedule.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	if len(events) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	epoch := events[0].Start
	for _, ev := range events {
		if ev.Start.Before(epoch) {
			epoch = ev.Start
		}
		if !ev.SpawnTime.IsZero() && ev.SpawnTime.Before(epoch) {
			epoch = ev.SpawnTime
		}
	}
	us := func(t time.Time) float64 {
		return float64(t.Sub(epoch).Nanoseconds()) / 1e3
	}

	// Metadata: name the process and every thread that appears, so
	// Perfetto shows "worker-3" instead of a bare tid.
	tids := map[int]bool{}
	for _, ev := range events {
		tids[ev.Worker] = true
		if !ev.SpawnTime.IsZero() {
			if ev.SpawnWorker >= 0 {
				tids[ev.SpawnWorker] = true
			} else {
				tids[externalTid] = true
			}
		}
	}
	out := make([]chromeEvent, 0, 2*len(events)+len(tids)+1)
	out = append(out, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "taskrt"},
	})
	sorted := make([]int, 0, len(tids))
	for tid := range tids {
		sorted = append(sorted, tid)
	}
	sort.Ints(sorted)
	for _, tid := range sorted {
		name := fmt.Sprintf("worker-%d", tid)
		if tid == externalTid {
			name = "external"
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}

	for i, ev := range events {
		cat := "task"
		if ev.Inline {
			cat = "task-inline"
		}
		name := fmt.Sprintf("task-%d", i)
		args := map[string]any{}
		if ev.ID != 0 {
			name = fmt.Sprintf("task-%d", ev.ID)
			args["parent"] = ev.Parent
			if ev.Site != "" {
				args["site"] = ev.Site
			}
			if ev.StolenFrom >= 0 {
				args["stolen_from"] = ev.StolenFrom
			}
		}
		out = append(out, chromeEvent{
			Name: name,
			Cat:  cat,
			Ph:   "X",
			Ts:   us(ev.Start),
			Dur:  float64(ev.Duration.Nanoseconds()) / 1e3,
			Pid:  0,
			Tid:  ev.Worker,
			Args: args,
		})
		if ev.ID != 0 && !ev.SpawnTime.IsZero() {
			// Flow arrow spawn -> run. The start binds to the spawning
			// worker's timeline at spawn time; the finish binds to the
			// start of the task's execution slice (bp "e" = enclosing).
			spawnTid := ev.SpawnWorker
			if spawnTid < 0 {
				spawnTid = externalTid
			}
			id := strconv.FormatInt(ev.ID, 10)
			out = append(out,
				chromeEvent{Name: "spawn", Cat: "spawn", Ph: "s",
					Ts: us(ev.SpawnTime), Pid: 0, Tid: spawnTid, ID: id},
				chromeEvent{Name: "spawn", Cat: "spawn", Ph: "f", BP: "e",
					Ts: us(ev.Start), Pid: 0, Tid: ev.Worker, ID: id},
			)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
