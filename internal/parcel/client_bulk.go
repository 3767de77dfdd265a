package parcel

// Remote counter reads. Every read is one evaluate_bulk exchange: K
// counters for the wire cost of one. Client.EvaluateBulk (and Evaluate,
// its one-name case) ships the names inline and keeps nothing on either
// side; a BulkSet ships its names once (bind_bulk) and thereafter sends
// only the set id — the form for long-lived sampling loops. Either way
// the answer is one bulkValues: the K values as columns.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
)

// BulkSet is a fixed set of remote counters sampled together. It is the
// remote analogue of core.BindSet: names are resolved (and shipped) once
// at bind time, evaluation is one round trip. Safe for concurrent use.
//
// The server compiles the set into per-connection state, so a reconnect
// invalidates it; the set re-binds automatically (tracked via the
// client's connection generation, with the server's "unknown bulk set"
// error as the backstop).
type BulkSet struct {
	c     *Client
	names []string

	stMu  chan struct{} // 1-token semaphore serialising bind state
	id    int64
	gen   uint64   // connection generation the set was bound on
	canon []string // the names bind_bulk answered: the base every answer decodes against
	bound bool
}

// NewBulkSet prepares a bulk sampling set over the given full counter
// names. No network traffic happens until the first Evaluate; binding is
// lenient — a name the server cannot resolve occupies its slot with
// StatusCounterUnknown instead of failing the set.
func (c *Client) NewBulkSet(names []string) *BulkSet {
	s := &BulkSet{
		c:     c,
		names: append([]string(nil), names...),
		stMu:  make(chan struct{}, 1),
	}
	s.stMu <- struct{}{}
	return s
}

// Names returns the counter names in the set, in result order.
func (s *BulkSet) Names() []string { return append([]string(nil), s.names...) }

// lock acquires the set's bind state, honouring ctx.
func (s *BulkSet) lock(ctx context.Context) error {
	select {
	case <-s.stMu:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Evaluate samples every counter in the set, optionally resetting each
// as part of the same read, in one round trip.
func (s *BulkSet) Evaluate(reset bool) ([]core.Value, error) {
	return s.EvaluateContext(context.Background(), reset)
}

// EvaluateContext is Evaluate under a caller deadline. Results keep the
// set's name order. With ServeStale enabled on the client, an
// unreachable endpoint yields the last-known value per counter with
// Status core.StatusStale (names never successfully read report
// StatusCounterUnknown) and a nil error as long as at least one counter
// could be served — the partial-results contract of docs/FAULTS.md.
func (s *BulkSet) EvaluateContext(ctx context.Context, reset bool) ([]core.Value, error) {
	if err := s.lock(ctx); err != nil {
		return nil, err
	}
	defer func() { s.stMu <- struct{}{} }()
	// Re-bind on first use and after any reconnect (the server-side set
	// lives in per-connection state). The generation check avoids a
	// round trip that is known to fail; the unknown-set error below
	// catches the race where the connection dies between check and send.
	for attempt := 0; attempt < 2; attempt++ {
		if !s.bound || s.gen != s.c.connGen.Load() {
			if err := s.bindLocked(ctx); err != nil {
				return s.c.maybeStale(s.names, err)
			}
		}
		vals, err := s.c.evaluateBulk(ctx, request{SetID: s.id, Reset: reset}, s.names, s.canon)
		switch {
		case err == nil:
			return vals, nil
		case isUnknownBulkSet(err):
			// The server lost the set (reconnect landed between our
			// generation check and the exchange); bind again and retry.
			s.bound = false
		default:
			return s.c.maybeStale(s.names, err)
		}
	}
	return s.c.maybeStale(s.names, &ServerError{Msg: errUnknownBulkSet})
}

// bindLocked ships the name set to the server. Caller holds the state
// semaphore.
func (s *BulkSet) bindLocked(ctx context.Context) error {
	// Capture the generation before the exchange: if the bind itself
	// rides a fresh connection, the response belongs to that connection
	// and the generation observed after success is the right one to pin.
	resp, err := s.c.roundTripContext(ctx, request{Op: "bind_bulk", Names: s.names})
	if err != nil {
		return err
	}
	if len(resp.Names) != len(s.names) {
		return &ServerError{Msg: fmt.Sprintf("parcel: bind_bulk answered %d names for %d", len(resp.Names), len(s.names))}
	}
	s.id = resp.SetID
	s.canon = resp.Names
	s.gen = s.c.connGen.Load()
	s.bound = true
	return nil
}

// evaluateBulk performs one evaluate_bulk exchange for the names asked
// for, decodes the answer against base (the names the server compares
// its values' names with) and, when stale serving is on, remembers every
// good reading under the name asked for.
func (c *Client) evaluateBulk(ctx context.Context, req request, names, base []string) ([]core.Value, error) {
	req.Op = "evaluate_bulk"
	resp, err := c.roundTripContext(ctx, req)
	if err != nil {
		return nil, err
	}
	vals, err := resp.Bulk.decode(base)
	if err != nil {
		return nil, err
	}
	if c.opts.ServeStale {
		for i, v := range vals {
			if v.Valid() {
				c.cacheStore(names[i], v)
			}
		}
	}
	return vals, nil
}

// bulkValues is the evaluate_bulk answer: K values as columns, slot i of
// every column belonging to the i-th name of the request (ad hoc) or of
// the bind_bulk answer (bound set). Names stay home: the client already
// holds that base, so only a slot whose value names something else
// ships its name, in Renamed. Scaling and Count travel only when some
// slot has a non-zero one. Time is Unix nanoseconds (exact for the
// years 1678–2262 that UnixNano spans): slot 0 absolute, every later
// slot relative to slot 0 (one sample's readings lie microseconds
// apart), 0 for a zero-time slot, which NoTime lists. The integer
// columns decode by hand (column.go); the wire is encoding/json's.
type bulkValues struct {
	Raw     column[int64]       `json:"raw"`
	Status  column[core.Status] `json:"status"`
	Time    column[int64]       `json:"time"`
	NoTime  column[int]         `json:"no_time,omitempty"`
	Scaling column[int64]       `json:"scaling,omitempty"`
	Count   column[int64]       `json:"count,omitempty"`
	Inverse column[int]         `json:"inverse,omitempty"` // slots whose Inverse is set
	Renamed map[int]string      `json:"renamed,omitempty"` // slot → name, where it is not base's
}

// encode fills b with vals, reusing b's columns; base holds one name per
// value.
func (b *bulkValues) encode(vals []core.Value, base []string) {
	k := len(vals)
	b.Raw, b.Status, b.Time = resize(b.Raw, k), resize(b.Status, k), resize(b.Time, k)
	b.NoTime, b.Scaling, b.Count, b.Inverse = b.NoTime[:0], b.Scaling[:0], b.Count[:0], b.Inverse[:0]
	clear(b.Renamed)
	var t0 int64
	for i, v := range vals {
		b.Raw[i], b.Status[i], b.Time[i] = v.Raw, v.Status, 0
		if v.Time.IsZero() {
			b.NoTime = append(b.NoTime, i)
		} else if t := v.Time.UnixNano(); i == 0 {
			t0, b.Time[0] = t, t
		} else {
			b.Time[i] = t - t0 // wraps, and decode's sum wraps back
		}
		if v.Scaling != 0 {
			b.Scaling = sparse(b.Scaling, k)
			b.Scaling[i] = v.Scaling
		}
		if v.Count != 0 {
			b.Count = sparse(b.Count, k)
			b.Count[i] = v.Count
		}
		if v.Inverse {
			b.Inverse = append(b.Inverse, i)
		}
		if v.Name != base[i] {
			if b.Renamed == nil {
				b.Renamed = make(map[int]string)
			}
			b.Renamed[i] = v.Name
		}
	}
}

// resize returns s with length k, reusing its array when it can.
func resize[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	return s[:k]
}

// sparse returns s unchanged once it holds a column, else a zeroed
// column of k slots.
func sparse(s []int64, k int) []int64 {
	if len(s) == 0 {
		s = resize(s, k)
		clear(s)
	}
	return s
}

// decode rebuilds the K = len(base) values, in slot order. A column of
// the wrong length or a slot index outside [0, K) fails the read.
func (b *bulkValues) decode(base []string) ([]core.Value, error) {
	k := len(base)
	if b == nil {
		return nil, bulkShapeError("an answer without values for %d names", k)
	}
	if len(b.Raw) != k || len(b.Status) != k || len(b.Time) != k ||
		len(b.Scaling) != 0 && len(b.Scaling) != k || len(b.Count) != 0 && len(b.Count) != k {
		return nil, bulkShapeError("columns of %d raw, %d status, %d time, %d scaling and %d count for %d names",
			len(b.Raw), len(b.Status), len(b.Time), len(b.Scaling), len(b.Count), k)
	}
	vals := make([]core.Value, k)
	for i := range vals {
		t := b.Time[i]
		if i > 0 {
			t += b.Time[0]
		}
		vals[i] = core.Value{Name: base[i], Raw: b.Raw[i], Status: b.Status[i], Time: time.Unix(0, t)}
		if len(b.Scaling) > 0 {
			vals[i].Scaling = b.Scaling[i]
		}
		if len(b.Count) > 0 {
			vals[i].Count = b.Count[i]
		}
	}
	for _, i := range b.NoTime {
		if i < 0 || i >= k {
			return nil, bulkShapeError("no_time slot %d of %d", i, k)
		}
		vals[i].Time = time.Time{}
	}
	for _, i := range b.Inverse {
		if i < 0 || i >= k {
			return nil, bulkShapeError("inverse slot %d of %d", i, k)
		}
		vals[i].Inverse = true
	}
	for i, name := range b.Renamed {
		if i < 0 || i >= k {
			return nil, bulkShapeError("renamed slot %d of %d", i, k)
		}
		vals[i].Name = name
	}
	return vals, nil
}

// bulkShapeError reports an evaluate_bulk answer that does not fit the
// names it answers. The server answered, so it is a *ServerError: never
// retried, never served stale.
func bulkShapeError(format string, args ...any) error {
	return &ServerError{Msg: "parcel: evaluate_bulk answered " + fmt.Sprintf(format, args...)}
}

// maybeStale serves names from the last-known-value cache after a
// transport failure: cached names come back as StatusStale with their
// original capture time, uncached names as StatusCounterUnknown. The
// error is swallowed only if stale serving is on, the failure is a
// transport one, and at least one counter could be served.
func (c *Client) maybeStale(names []string, err error) ([]core.Value, error) {
	if !c.opts.ServeStale || !staleOK(err) {
		return nil, err
	}
	values := make([]core.Value, len(names))
	served := 0
	for i, name := range names {
		if v, ok := c.cacheLoad(name); ok {
			v.Status = core.StatusStale
			values[i] = v
			served++
		} else {
			values[i] = core.Value{Name: name, Status: core.StatusCounterUnknown}
		}
	}
	if served == 0 {
		return nil, err
	}
	return values, nil
}

// EvaluateBulk samples the named counters in one round trip, results in
// input order, optionally resetting each as part of the same read. The
// names travel with the request and nothing is kept on either side; for
// a long-lived sampling loop, hold a NewBulkSet instead. Binding is
// lenient and stale serving follows BulkSet.EvaluateContext.
func (c *Client) EvaluateBulk(names []string, reset bool) ([]core.Value, error) {
	return c.EvaluateBulkContext(context.Background(), names, reset)
}

// EvaluateBulkContext is EvaluateBulk under a caller deadline.
func (c *Client) EvaluateBulkContext(ctx context.Context, names []string, reset bool) ([]core.Value, error) {
	vals, err := c.evaluateBulk(ctx, request{Names: names, Reset: reset}, names, names)
	if err != nil {
		return c.maybeStale(names, err)
	}
	return vals, nil
}

// isUnknownBulkSet matches the server error for a bulk set id the
// connection no longer holds.
func isUnknownBulkSet(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && strings.Contains(se.Msg, errUnknownBulkSet)
}
