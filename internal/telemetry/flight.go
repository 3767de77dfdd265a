package telemetry

// Flight recorder: "collect cheap always, collect deep on anomaly." A
// pre-allocated frame ring rides along the normal sampling loop at base
// rate; when a watchdog health event (or an explicit Trigger) fires,
// the collector flips to a high-rate (≥10× base) full-set burst for a
// bounded window, so the expensive data exists exactly when something
// went wrong. The ring always holds the frames *around* the trigger —
// pre-trigger context at base rate, the burst at burst rate — and is
// dumpable as JSON or CSV without stopping the application.
//
// Everything on the record path is allocation-free: frames and their
// value arrays are allocated once at construction, Record copies values
// in place, and the state machine is advanced by the timestamps it is
// handed. Hysteresis: triggers during a burst coalesce into it (no
// window extension), and a cooldown after each burst suppresses
// re-triggering, so a flapping health event cannot pin the sampler at
// burst rate.

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The recorder's fixed sizing: a ring of ringFrames frames of up to
// frameValues values each (values beyond are dropped and counted in
// truncated); a burst samples at burstFactor times the base rate for
// burstWindow, and then suppresses new triggers for burstCooldown.
const (
	ringFrames    = 512
	frameValues   = 256
	burstFactor   = 10
	burstWindow   = 2 * time.Second
	burstCooldown = 2 * time.Second
)

// flight recorder states.
const (
	flightIdle = iota
	flightBurst
	flightCooldown
)

// flightFrame is one recorded sample batch. vals is allocated once at
// construction and reused in place.
type flightFrame struct {
	t       time.Time
	trigger string // non-empty on the frame that armed a burst
	burst   bool
	vals    []core.Value
}

// FlightRecorder is the ring plus its burst state machine. All methods
// are safe for concurrent use.
type FlightRecorder struct {
	mu        sync.Mutex
	frames    []flightFrame
	next      int
	full      bool
	state     int
	stateEnds time.Time // when the current burst/cooldown lapses
	trigAt    time.Time
	trigWhy   string

	triggers   atomic.Int64 // accepted (armed or coalesced)
	suppressed atomic.Int64 // rejected during cooldown
	recorded   atomic.Int64 // frames recorded, cumulative
	truncated  atomic.Int64 // values dropped for exceeding frameValues
	bursting   atomic.Int64 // 0/1 gauge
}

// NewFlightRecorder pre-allocates the ring; nothing on the Record or
// Trigger path allocates afterwards.
func NewFlightRecorder() *FlightRecorder {
	fr := &FlightRecorder{frames: make([]flightFrame, ringFrames)}
	for i := range fr.frames {
		fr.frames[i].vals = make([]core.Value, 0, frameValues)
	}
	return fr
}

// advanceLocked moves the state machine to time t.
func (fr *FlightRecorder) advanceLocked(t time.Time) {
	for {
		switch fr.state {
		case flightBurst:
			if t.Before(fr.stateEnds) {
				return
			}
			fr.state = flightCooldown
			fr.stateEnds = fr.stateEnds.Add(burstCooldown)
			fr.bursting.Store(0)
		case flightCooldown:
			if t.Before(fr.stateEnds) {
				return
			}
			fr.state = flightIdle
			return
		default:
			return
		}
	}
}

// Trigger arms a burst: from idle it starts one; during a burst it
// coalesces (counted, window not extended); during cooldown it is
// suppressed. Returns true when the anomaly will be (or already is
// being) captured at burst rate.
func (fr *FlightRecorder) Trigger(reason string) bool {
	return fr.triggerAt(time.Now(), reason)
}

func (fr *FlightRecorder) triggerAt(t time.Time, reason string) bool {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	fr.advanceLocked(t)
	switch fr.state {
	case flightIdle:
		fr.state = flightBurst
		fr.stateEnds = t.Add(burstWindow)
		fr.trigAt = t
		fr.trigWhy = reason
		fr.bursting.Store(1)
		fr.triggers.Add(1)
		return true
	case flightBurst:
		fr.triggers.Add(1)
		return true
	default: // cooldown: hysteresis — no back-to-back bursts
		fr.suppressed.Add(1)
		return false
	}
}

// Bursting reports whether the recorder is inside a burst window; the
// collector samples at BurstInterval while it is.
func (fr *FlightRecorder) Bursting() bool { return fr.burstingAt(time.Now()) }

func (fr *FlightRecorder) burstingAt(t time.Time) bool {
	fr.mu.Lock()
	fr.advanceLocked(t)
	b := fr.state == flightBurst
	fr.mu.Unlock()
	return b
}

// BurstInterval returns the sampling interval to use while bursting,
// given the collector's base interval: base/burstFactor, floored at 50µs
// so a pathological base cannot spin the loop.
func (fr *FlightRecorder) BurstInterval(base time.Duration) time.Duration {
	d := base / burstFactor
	if d < 50*time.Microsecond {
		d = 50 * time.Microsecond
	}
	return d
}

// Record appends one frame to the ring (allocation-free). The frame is
// marked burst while a burst window is open; the first frame at or
// after the trigger carries its reason.
func (fr *FlightRecorder) Record(t time.Time, vals []core.Value) {
	fr.mu.Lock()
	fr.advanceLocked(t)
	f := &fr.frames[fr.next]
	fr.next++
	if fr.next == len(fr.frames) {
		fr.next = 0
		fr.full = true
	}
	f.t = t
	f.burst = fr.state == flightBurst
	f.trigger = ""
	if f.burst && fr.trigWhy != "" && !t.Before(fr.trigAt) {
		f.trigger = fr.trigWhy
		fr.trigWhy = "" // the reason rides on exactly one frame
	}
	n := len(vals)
	if n > cap(f.vals) {
		fr.truncated.Add(int64(n - cap(f.vals)))
		n = cap(f.vals)
	}
	f.vals = f.vals[:n]
	copy(f.vals, vals[:n])
	fr.mu.Unlock()
	fr.recorded.Add(1)
}

// Triggers returns the cumulative count of accepted triggers.
func (fr *FlightRecorder) Triggers() int64 { return fr.triggers.Load() }

// Suppressed returns the cumulative count of cooldown-suppressed
// triggers.
func (fr *FlightRecorder) Suppressed() int64 { return fr.suppressed.Load() }

// Recorded returns the cumulative count of recorded frames.
func (fr *FlightRecorder) Recorded() int64 { return fr.recorded.Load() }

// FlightValue is one counter observation inside a dumped frame.
type FlightValue struct {
	Name   string  `json:"name"`
	Value  float64 `json:"v"`
	Count  int64   `json:"n,omitempty"`
	Status string  `json:"status,omitempty"` // omitted when valid
}

// FlightFrame is one dumped sample batch.
type FlightFrame struct {
	Time    time.Time     `json:"t"`
	Burst   bool          `json:"burst,omitempty"`
	Trigger string        `json:"trigger,omitempty"`
	Values  []FlightValue `json:"values"`
}

// FlightDump is the recorder's captured ring, oldest frame first.
type FlightDump struct {
	Captured   time.Time     `json:"captured"`
	Frames     int           `json:"frames"`
	Burst      int           `json:"burst_frames"`
	Triggers   int64         `json:"triggers"`
	Suppressed int64         `json:"suppressed"`
	Truncated  int64         `json:"truncated_values,omitempty"`
	Ring       []FlightFrame `json:"ring"`
}

// Snapshot copies the ring out, oldest first. This is the read path —
// it allocates freely; the record path never does.
func (fr *FlightRecorder) Snapshot() FlightDump {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	d := FlightDump{
		Captured:   time.Now(),
		Triggers:   fr.triggers.Load(),
		Suppressed: fr.suppressed.Load(),
		Truncated:  fr.truncated.Load(),
	}
	emit := func(f *flightFrame) {
		if f.t.IsZero() {
			return
		}
		df := FlightFrame{Time: f.t, Burst: f.burst, Trigger: f.trigger,
			Values: make([]FlightValue, 0, len(f.vals))}
		for _, v := range f.vals {
			fv := FlightValue{Name: v.Name, Value: v.Float64(), Count: v.Count}
			if !v.Valid() {
				fv.Status = v.Status.String()
			}
			df.Values = append(df.Values, fv)
		}
		if df.Burst {
			d.Burst++
		}
		d.Ring = append(d.Ring, df)
	}
	if fr.full {
		for i := fr.next; i < len(fr.frames); i++ {
			emit(&fr.frames[i])
		}
	}
	for i := 0; i < fr.next; i++ {
		emit(&fr.frames[i])
	}
	d.Frames = len(d.Ring)
	return d
}

// WriteJSON dumps the ring as indented JSON.
func (fr *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(fr.Snapshot())
}

// DumpJSON writes the ring as JSON to the file at path, or to stdout
// when path is "-".
func (fr *FlightRecorder) DumpJSON(path string, stdout io.Writer) error {
	if path == "-" {
		return fr.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteCSV dumps the ring as CSV, quoted per RFC 4180, one row per
// counter value: time,frame,burst,trigger,name,value,count,status.
func (fr *FlightRecorder) WriteCSV(w io.Writer) error {
	d := fr.Snapshot()
	cw := csv.NewWriter(w)
	// A csv.Writer keeps its first write error; Error reports it.
	_ = cw.Write([]string{"time", "frame", "burst", "trigger", "name", "value", "count", "status"})
	for i, f := range d.Ring {
		for _, v := range f.Values {
			_ = cw.Write([]string{f.Time.Format(time.RFC3339Nano), strconv.Itoa(i),
				strconv.FormatBool(f.Burst), f.Trigger, v.Name,
				strconv.FormatFloat(v.Value, 'g', -1, 64), strconv.FormatInt(v.Count, 10), v.Status})
		}
	}
	cw.Flush()
	return cw.Error()
}

// RegisterCounters self-exports the recorder's state as
// /telemetry{locality#0/total}/flight/* counters on reg and adds them
// to the active set (critical-tier by DefaultTiers, so a budget squeeze
// never hides whether the recorder fired). Already-registered names are
// left in place.
func (fr *FlightRecorder) RegisterCounters(reg *core.Registry) {
	register := func(counter, help, unit string, sample func() int64) {
		c := core.NewLocalityFunc("telemetry", counter, 0, help, unit, sample, nil)
		if err := reg.Register(c); err != nil {
			return
		}
		_, _ = reg.AddActive(c.Name().String())
	}
	register("flight/triggers", "flight-recorder triggers accepted (armed or coalesced into a burst)",
		core.UnitEvents, fr.triggers.Load)
	register("flight/suppressed", "flight-recorder triggers suppressed by cooldown hysteresis",
		core.UnitEvents, fr.suppressed.Load)
	register("flight/frames", "flight-recorder frames recorded, cumulative",
		core.UnitEvents, fr.recorded.Load)
	register("flight/bursting", "1 while a burst window is open",
		core.UnitNone, func() int64 {
			if fr.Bursting() {
				return 1
			}
			return 0
		})
}
