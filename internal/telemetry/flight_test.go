package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

func flightVals(n int, raw int64) []core.Value {
	vals := make([]core.Value, n)
	for i := range vals {
		vals[i] = core.Value{Name: "/threads{locality#0/total}/count/cumulative",
			Raw: raw, Time: time.Unix(1, 0), Status: core.StatusValid}
	}
	return vals
}

// TestFlightStateMachine: idle → burst on trigger, burst frames marked,
// exactly one frame carries the trigger reason, burst lapses into
// cooldown (where triggers are suppressed — the anti-flap hysteresis),
// and cooldown lapses back to idle where a new trigger arms again.
func TestFlightStateMachine(t *testing.T) {
	fr := NewFlightRecorder()
	t0 := time.Unix(100, 0)

	fr.Record(t0, flightVals(2, 1)) // pre-trigger context
	if fr.burstingAt(t0) {
		t.Fatal("bursting before any trigger")
	}
	if !fr.triggerAt(t0.Add(100*time.Millisecond), "stalled_task") {
		t.Fatal("idle trigger rejected")
	}
	if !fr.burstingAt(t0.Add(200 * time.Millisecond)) {
		t.Fatal("not bursting after trigger")
	}
	// Trigger during the burst: coalesced (counted, no new window).
	if !fr.triggerAt(t0.Add(300*time.Millisecond), "backlog_growth") {
		t.Fatal("coalesced trigger should report captured")
	}
	fr.Record(t0.Add(300*time.Millisecond), flightVals(2, 2))
	fr.Record(t0.Add(400*time.Millisecond), flightVals(2, 3))
	// Window ends 2s after the trigger; cooldown runs 2s more.
	if fr.burstingAt(t0.Add(2200 * time.Millisecond)) {
		t.Fatal("still bursting past the window")
	}
	if fr.triggerAt(t0.Add(2500*time.Millisecond), "flappy") {
		t.Fatal("cooldown trigger not suppressed")
	}
	fr.Record(t0.Add(2500*time.Millisecond), flightVals(2, 4))
	// Past cooldown (trigger+window+cooldown = t0+4.1s): idle again.
	if !fr.triggerAt(t0.Add(4500*time.Millisecond), "second_episode") {
		t.Fatal("post-cooldown trigger rejected")
	}

	if fr.Triggers() != 3 || fr.Suppressed() != 1 {
		t.Fatalf("triggers=%d suppressed=%d, want 3/1", fr.Triggers(), fr.Suppressed())
	}
	d := fr.Snapshot()
	if d.Frames != 4 {
		t.Fatalf("frames = %d, want 4", d.Frames)
	}
	var trigFrames []string
	burst := 0
	for _, f := range d.Ring {
		if f.Trigger != "" {
			trigFrames = append(trigFrames, f.Trigger)
		}
		if f.Burst {
			burst++
		}
	}
	if len(trigFrames) != 1 || trigFrames[0] != "stalled_task" {
		t.Fatalf("trigger frames = %v, want exactly [stalled_task]", trigFrames)
	}
	if burst != 2 {
		t.Fatalf("burst frames = %d, want 2 (the two in-window records)", burst)
	}
}

// TestFlightRingWraps: the ring keeps the newest ringFrames frames,
// oldest first in the dump.
func TestFlightRingWraps(t *testing.T) {
	fr := NewFlightRecorder()
	t0 := time.Unix(100, 0)
	const n = ringFrames + 12
	for i := 0; i < n; i++ {
		fr.Record(t0.Add(time.Duration(i)*time.Millisecond), flightVals(1, int64(i)))
	}
	d := fr.Snapshot()
	if d.Frames != ringFrames {
		t.Fatalf("frames = %d, want %d", d.Frames, ringFrames)
	}
	if first, last := d.Ring[0].Values[0].Value, d.Ring[ringFrames-1].Values[0].Value; first != 12 || last != n-1 {
		t.Fatalf("ring holds [%g..%g], want [12..%d] oldest-first", first, last, n-1)
	}
	if fr.Recorded() != n {
		t.Fatalf("recorded = %d, want %d", fr.Recorded(), n)
	}
}

// TestFlightTruncation: a batch larger than frameValues is clipped and
// counted, never grown (the record path may not allocate).
func TestFlightTruncation(t *testing.T) {
	fr := NewFlightRecorder()
	fr.Record(time.Unix(1, 0), flightVals(frameValues+7, 1))
	d := fr.Snapshot()
	if len(d.Ring[0].Values) != frameValues {
		t.Fatalf("frame holds %d values, want %d", len(d.Ring[0].Values), frameValues)
	}
	if d.Truncated != 7 {
		t.Fatalf("truncated = %d, want 7", d.Truncated)
	}
}

// TestFlightBurstInterval: ≥10× the base rate, with a floor.
func TestFlightBurstInterval(t *testing.T) {
	fr := NewFlightRecorder()
	if got := fr.BurstInterval(100 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("burst interval = %v, want 10ms", got)
	}
	if got := fr.BurstInterval(100 * time.Microsecond); got != 50*time.Microsecond {
		t.Fatalf("burst interval floor = %v, want 50µs", got)
	}
}

// TestFlightDumpFormats: the JSON dump round-trips and the CSV dump has
// a header plus one row per value, with commas in trigger reasons
// quoted.
func TestFlightDumpFormats(t *testing.T) {
	fr := NewFlightRecorder()
	t0 := time.Unix(100, 0)
	fr.Record(t0, flightVals(2, 7))
	fr.triggerAt(t0.Add(time.Millisecond), "stalled, worker#0")
	fr.Record(t0.Add(2*time.Millisecond), flightVals(2, 8))

	var jb strings.Builder
	if err := fr.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal([]byte(jb.String()), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Frames != 2 || d.Burst != 1 || d.Triggers != 1 {
		t.Fatalf("dump = %+v", d)
	}

	var cb strings.Builder
	if err := fr.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if lines[0] != "time,frame,burst,trigger,name,value,count,status" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 5 { // header + 2 frames × 2 values
		t.Fatalf("csv rows = %d, want 5", len(lines))
	}
	if !strings.Contains(cb.String(), `"stalled, worker#0"`) {
		t.Fatalf("comma in trigger reason not quoted:\n%s", cb.String())
	}
}

// TestFlightCSVQuoting: a counter name and a trigger reason holding
// both quotes and commas read back through encoding/csv unchanged.
func TestFlightCSVQuoting(t *testing.T) {
	const name, why = `/arithmetics/add@"a",b`, `stall "x", worker#0`
	fr := NewFlightRecorder()
	t0 := time.Unix(100, 0)
	fr.triggerAt(t0, why)
	fr.Record(t0, []core.Value{{Name: name, Raw: 1, Time: t0, Status: core.StatusValid}})

	var b strings.Builder
	if err := fr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	r := csv.NewReader(strings.NewReader(b.String()))
	r.FieldsPerRecord = 8
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("flight CSV does not parse: %v\n%s", err, b.String())
	}
	if len(recs) != 2 || recs[1][3] != why || recs[1][4] != name {
		t.Fatalf("rows = %q, want trigger %q and name %q", recs, why, name)
	}
}

// TestFlightHTTP: /flight serves the dump as JSON (and CSV on demand)
// next to /metrics and /series.
func TestFlightHTTP(t *testing.T) {
	s := NewSampler(8)
	s.Observe("/threads{locality#0/total}/count/cumulative", Point{Time: time.Unix(1, 0), Value: 1})
	fr := NewFlightRecorder()
	fr.Record(time.Unix(100, 0), flightVals(1, 42))
	srv := httptest.NewServer(Handler(s, WithFlight(fr)))
	defer srv.Close()

	get := func(path string) (*httptest.ResponseRecorder, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return nil, b.String()
	}

	_, body := get("/flight")
	var d FlightDump
	if err := json.Unmarshal([]byte(body), &d); err != nil || d.Frames != 1 {
		t.Fatalf("/flight JSON: %v (%d frames)", err, d.Frames)
	}
	_, csv := get("/flight?format=csv")
	if !strings.HasPrefix(csv, "time,frame,burst,trigger,") {
		t.Fatalf("/flight?format=csv = %q", csv)
	}
	_, metrics := get("/metrics")
	if !strings.Contains(metrics, "taskrt_threads_count_cumulative") {
		t.Fatal("/metrics missing alongside /flight")
	}
}

// TestCollectorFlightBurst: with a recorder attached, a trigger flips
// the running collector to burst rate — the ring gains frames at ≥10×
// the base cadence — and every sampled batch lands in the ring.
func TestCollectorFlightBurst(t *testing.T) {
	reg := core.NewRegistry()
	reg.MustRegister(core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"}))
	if _, err := reg.AddActive("/threads{locality#0/total}/count/cumulative"); err != nil {
		t.Fatal(err)
	}
	s := NewSampler(64)
	// Base 200ms: without the burst, ~2 frames land in 500ms.
	c := NewCollector(s, RegistrySource(reg, false), 200*time.Millisecond)
	fr := NewFlightRecorder()
	c.EnableFlight(fr)
	if c.Flight() != fr {
		t.Fatal("Flight() does not return the attached recorder")
	}
	c.Start()
	defer c.Stop()

	if !c.TriggerFlight("test burst") {
		t.Fatal("trigger rejected")
	}
	time.Sleep(500 * time.Millisecond)
	d := fr.Snapshot()
	// 500ms of the 2s window at 20ms burst cadence ≈ 25 frames; ≥10 proves the
	// ≥10× escalation against the 2 base-rate frames.
	if d.Burst < 10 {
		t.Fatalf("burst frames in window = %d, want >= 10 (≥10× base rate)", d.Burst)
	}
	if fr.Recorded() < int64(d.Burst) {
		t.Fatalf("recorded %d < burst %d", fr.Recorded(), d.Burst)
	}
	// TriggerFlight without a recorder attached reports false.
	c2 := NewCollector(NewSampler(4), RegistrySource(reg, false), time.Second)
	if c2.TriggerFlight("nothing attached") {
		t.Fatal("TriggerFlight with no recorder must report false")
	}
}

// TestFlightRecordConcurrent: Record/Trigger/Snapshot race-free under
// concurrent use (meaningful under -race).
func TestFlightRecordConcurrent(t *testing.T) {
	fr := NewFlightRecorder()
	var wg sync.WaitGroup
	t0 := time.Unix(100, 0)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := flightVals(4, int64(g))
			for i := 0; i < 200; i++ {
				fr.Record(t0.Add(time.Duration(g*200+i)*time.Millisecond), vals)
				if i%50 == 0 {
					fr.triggerAt(t0.Add(time.Duration(g*200+i)*time.Millisecond), "race")
					fr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if fr.Recorded() != 800 {
		t.Fatalf("recorded = %d, want 800", fr.Recorded())
	}
}
