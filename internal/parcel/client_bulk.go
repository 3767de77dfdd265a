package parcel

// Remote counter reads. Every read is one evaluate_bulk exchange: K
// counters for the wire cost of one. Client.EvaluateBulk (and Evaluate,
// its one-name case) ships the names inline and keeps nothing on either
// side; a BulkSet ships its names once (bind_bulk) and thereafter sends
// only the set id — the form for long-lived sampling loops.

import (
	"context"
	"errors"
	"fmt"
	"strings"

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
	gen   uint64 // connection generation the set was bound on
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
		vals, err := s.c.evaluateBulk(ctx, request{SetID: s.id, Reset: reset}, s.names)
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
	s.id = resp.SetID
	s.gen = s.c.connGen.Load()
	s.bound = true
	return nil
}

// evaluateBulk performs one evaluate_bulk exchange for names and
// remembers every good reading, under the name asked for, for stale
// serving.
func (c *Client) evaluateBulk(ctx context.Context, req request, names []string) ([]core.Value, error) {
	req.Op = "evaluate_bulk"
	resp, err := c.roundTripContext(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(resp.Values) != len(names) {
		return nil, &ServerError{Msg: fmt.Sprintf("parcel: evaluate_bulk answered %d values for %d names", len(resp.Values), len(names))}
	}
	for i, v := range resp.Values {
		if v.Status == core.StatusValid || v.Status == core.StatusNewData {
			c.cacheStore(names[i], v)
		}
	}
	return resp.Values, nil
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
	vals, err := c.evaluateBulk(ctx, request{Names: names, Reset: reset}, names)
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
