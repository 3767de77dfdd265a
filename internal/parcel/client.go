package parcel

// The fault-tolerant client side of the parcel transport. Every remote
// call runs under a deadline (context and/or per-attempt timeout), the
// single TCP connection is re-established transparently after a
// failure, idempotent requests are retried with exponential backoff and
// jitter, a circuit breaker fast-fails a persistently dead endpoint,
// and — when enabled — Evaluate serves last-known values tagged
// core.StatusStale while the endpoint is unreachable, so a monitor
// degrades instead of dying with the thing it observes.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// ServerError is an error reported by the remote server itself: the
// transport worked, the request did not. Server errors are never
// retried and never trip the circuit breaker.
type ServerError struct{ Msg string }

// Error implements error.
func (e *ServerError) Error() string { return e.Msg }

// ErrClientClosed is returned by calls on a closed client.
var ErrClientClosed = errors.New("parcel: client closed")

// DialError marks a transport failure where no request reached the
// endpoint at all — the (re-)dial itself failed. The distinction
// matters to the spawn plane: a spawn that failed with a DialError (or
// ErrCircuitOpen) definitely did not execute and may be redirected to a
// replica, while any other transport failure is ambiguous and must be
// retried on the same endpoint under the same idempotency key.
type DialError struct{ Err error }

// Error implements error, passing the underlying dial failure through
// unchanged.
func (e *DialError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *DialError) Unwrap() error { return e.Err }

// ClientOptions tunes the client's fault tolerance. The zero value
// selects the defaults noted on each field.
type ClientOptions struct {
	// Timeout is the per-attempt deadline covering write + read of one
	// exchange (and a reconnect, if needed). Default 10s; negative
	// disables. A context deadline, when earlier, wins.
	Timeout time.Duration
	// Retries is how many times an idempotent request is re-sent after a
	// transport failure (total attempts = Retries+1). Default 2;
	// negative disables retries.
	Retries int
	// BackoffBase is the first retry delay; it doubles per retry up to
	// BackoffCap, with ±50% jitter. Defaults 25ms and 1s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is the number of consecutive transport failures
	// that opens the circuit breaker. Default 5; negative disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long the breaker stays open before letting
	// one probe through (half-open). Default 2s.
	BreakerCooldown time.Duration
	// ServeStale makes Evaluate return the last successfully read value
	// — Status core.StatusStale, original capture Time preserved —
	// instead of an error while the endpoint is unreachable.
	ServeStale bool
	// Seed seeds the jitter PRNG so failure schedules are reproducible;
	// 0 uses a fixed default seed.
	Seed int64
	// Dialer overrides how connections are (re-)established — the hook
	// for fault injection (package chaos). Default net.Dialer.
	Dialer func(ctx context.Context, addr string) (net.Conn, error)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Dialer == nil {
		var d net.Dialer
		o.Dialer = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	return o
}

// Client queries a remote registry. It is safe for concurrent use; each
// request/response pair is serialised on the single connection, which
// is re-dialled transparently after transport failures.
type Client struct {
	addr    string
	opts    ClientOptions
	meters  *meters
	breaker *breaker

	mu   sync.Mutex // serialises exchanges; guards conn, rd
	conn net.Conn
	rd   *bufio.Reader

	// rngMu guards the jitter PRNG alone: mu is held across a whole
	// exchange, and a retry's backoff must not wait for somebody else's
	// in-flight round trip before it can even start sleeping.
	rngMu sync.Mutex
	rng   *rand.Rand

	// connGen counts connection establishments. Bulk sets record the
	// generation they were bound on; a mismatch means the server-side
	// set died with the old connection and the client re-binds before
	// sampling instead of burning a round trip on a known failure.
	connGen atomic.Uint64

	bulkMu   sync.Mutex
	bulkSets map[string]*BulkSet // EvaluateBulk's cache, keyed by joined names

	// The spawn plane (spawn.go): the manager multiplexing in-flight
	// spawn polls, and the idempotency-key source.
	spawnMu    sync.Mutex
	spawns     *spawnMgr
	spawnEpoch int64
	spawnSeq   atomic.Int64

	cacheMu sync.Mutex
	cache   map[string]core.Value

	closeMu sync.Mutex
	closed  bool
}

// Dial connects to a parcel server with default fault tolerance. Pass a
// registry and locality to register the client's own parcel counters,
// or nil to skip.
func Dial(addr string, reg *core.Registry, locality int64) (*Client, error) {
	return DialContext(context.Background(), addr, reg, locality, ClientOptions{})
}

// DialContext connects with explicit fault-tolerance options; the
// context bounds the initial dial.
func DialContext(ctx context.Context, addr string, reg *core.Registry, locality int64, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	m, err := newMeters(reg, locality, reg != nil)
	if err != nil {
		return nil, err
	}
	var gauge *core.RawCounter
	if reg != nil {
		gauge = newParcelCounter(locality, "breaker/state",
			"circuit breaker state (0 closed, 1 open, 2 half-open)", core.UnitNone)
		if err := reg.Register(gauge); err != nil {
			return nil, err
		}
	}
	c := &Client{
		addr:       addr,
		opts:       opts,
		meters:     m,
		breaker:    newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, gauge),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		cache:      make(map[string]core.Value),
		spawnEpoch: time.Now().UnixNano(),
	}
	dctx, cancel := c.attemptContext(ctx)
	defer cancel()
	conn, err := opts.Dialer(dctx, addr)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.rd = bufio.NewReader(conn)
	c.connGen.Add(1)
	return c, nil
}

// Close closes the connection; in-flight calls fail and future calls
// return ErrClientClosed.
func (c *Client) Close() error {
	c.closeMu.Lock()
	c.closed = true
	c.closeMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.rd = nil
	return err
}

func (c *Client) isClosed() bool {
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	return c.closed
}

// attemptContext derives the deadline of one attempt: the earlier of
// the caller's context deadline and now+Timeout.
func (c *Client) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.Timeout > 0 {
		return context.WithTimeout(ctx, c.opts.Timeout)
	}
	return context.WithCancel(ctx)
}

// roundTripContext performs one request/response exchange with
// reconnect, retry (idempotent requests only), backoff and breaker.
func (c *Client) roundTripContext(ctx context.Context, req request) (response, error) {
	out, err := json.Marshal(req)
	if err != nil {
		return response{}, err
	}
	out = append(out, '\n')
	attempts := 1
	if req.idempotent() {
		attempts += c.opts.Retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return response{}, err
		}
		if c.isClosed() {
			return response{}, ErrClientClosed
		}
		if !c.breaker.allow() {
			// Fast-fail: don't touch the network while the breaker is
			// open. Not counted as a transport error — nothing was sent.
			return response{}, ErrCircuitOpen
		}
		resp, err := c.attempt(ctx, out)
		if err == nil {
			c.breaker.record(true)
			if resp.Error != "" {
				// The server answered: transport is healthy, the request
				// itself failed. Never retried.
				return resp, &ServerError{Msg: resp.Error}
			}
			return resp, nil
		}
		lastErr = err
		c.meters.errors.Inc()
		if isTimeout(err) {
			c.meters.timeouts.Inc()
		}
		c.breaker.record(false)
		if ctx.Err() != nil {
			return response{}, ctx.Err()
		}
		if attempt+1 < attempts {
			c.meters.retries.Inc()
			if !c.backoff(ctx, attempt) {
				return response{}, ctx.Err()
			}
		}
	}
	return response{}, lastErr
}

// attempt performs exactly one exchange on the current connection,
// dialling a fresh one if needed; any failure tears the connection down
// so the next attempt starts clean.
func (c *Client) attempt(ctx context.Context, frame []byte) (response, error) {
	actx, cancel := c.attemptContext(ctx)
	defer cancel()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if c.isClosed() {
			return response{}, ErrClientClosed
		}
		conn, err := c.opts.Dialer(actx, c.addr)
		if err != nil {
			// Typed: nothing was sent, so the request definitely did not
			// execute — the spawn plane's licence to fail over.
			return response{}, &DialError{Err: mapDeadline(ctx, err)}
		}
		c.conn = conn
		c.rd = bufio.NewReader(conn)
		c.connGen.Add(1)
	}
	if dl, ok := actx.Deadline(); ok {
		c.conn.SetDeadline(dl)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	if _, err := c.conn.Write(frame); err != nil {
		c.dropConnLocked()
		return response{}, mapDeadline(ctx, err)
	}
	c.meters.sent.Inc()
	c.meters.dataSent.Add(int64(len(frame)))
	line, err := c.rd.ReadBytes('\n')
	if err != nil {
		c.dropConnLocked()
		return response{}, mapDeadline(ctx, err)
	}
	c.meters.received.Inc()
	c.meters.dataReceived.Add(int64(len(line)))
	var resp response
	if err := json.Unmarshal(line, &resp); err != nil {
		// A garbled response leaves the stream unframed; reconnect.
		c.dropConnLocked()
		return response{}, err
	}
	return resp, nil
}

func (c *Client) dropConnLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
		c.rd = nil
	}
}

// backoff sleeps the exponential-backoff delay for the given attempt
// with ±50% jitter, bounded by ctx; it reports false if ctx expired.
func (c *Client) backoff(ctx context.Context, attempt int) bool {
	d := c.opts.BackoffBase << uint(attempt)
	if d > c.opts.BackoffCap || d <= 0 {
		d = c.opts.BackoffCap
	}
	c.rngMu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d)))
	c.rngMu.Unlock()
	t := time.NewTimer(jittered)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// isTimeout classifies deadline-shaped transport failures.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// mapDeadline converts an I/O timeout caused by the *caller's* expired
// context into context.DeadlineExceeded, so deadline misses surface
// uniformly regardless of which layer noticed first.
func mapDeadline(ctx context.Context, err error) error {
	if !isTimeout(err) {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	// The net poller can observe the shared deadline instant before the
	// context's own timer callback has run, so ctx.Err() may still be
	// nil for a miss that is genuinely the caller's: decide by clock.
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return err
}

// cacheStore remembers the last good reading of one counter.
func (c *Client) cacheStore(name string, v core.Value) {
	c.cacheMu.Lock()
	c.cache[name] = v
	c.cacheMu.Unlock()
}

func (c *Client) cacheLoad(name string) (core.Value, bool) {
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	v, ok := c.cache[name]
	return v, ok
}

// staleOK reports whether err is the kind of failure stale serving may
// paper over: the endpoint is unreachable (transport error or open
// breaker), as opposed to the server rejecting the request.
func staleOK(err error) bool {
	var se *ServerError
	return !errors.As(err, &se) && !errors.Is(err, ErrClientClosed)
}

// Evaluate reads one remote counter, optionally resetting it.
func (c *Client) Evaluate(name string, reset bool) (core.Value, error) {
	return c.EvaluateContext(context.Background(), name, reset)
}

// EvaluateContext is Evaluate under a caller deadline. With ServeStale
// enabled, an unreachable endpoint yields the last-known value with
// Status core.StatusStale (original capture Time preserved) and a nil
// error instead of failing.
func (c *Client) EvaluateContext(ctx context.Context, name string, reset bool) (core.Value, error) {
	resp, err := c.roundTripContext(ctx, request{Op: "evaluate", Name: name, Reset: reset})
	if err == nil {
		if resp.Value == nil {
			return core.Value{Name: name, Status: core.StatusInvalidData},
				errors.New("parcel: empty evaluate response")
		}
		c.cacheStore(name, *resp.Value)
		return *resp.Value, nil
	}
	if c.opts.ServeStale && staleOK(err) {
		if v, ok := c.cacheLoad(name); ok {
			v.Status = core.StatusStale
			return v, nil
		}
	}
	return core.Value{Name: name, Status: core.StatusCounterUnknown}, err
}

// Discover expands a counter pattern remotely.
func (c *Client) Discover(pattern string) ([]string, error) {
	return c.DiscoverContext(context.Background(), pattern)
}

// DiscoverContext is Discover under a caller deadline.
func (c *Client) DiscoverContext(ctx context.Context, pattern string) ([]string, error) {
	resp, err := c.roundTripContext(ctx, request{Op: "discover", Pattern: pattern})
	return resp.Names, err
}

// Types lists the remote registry's counter types.
func (c *Client) Types() ([]core.Info, error) {
	return c.TypesContext(context.Background())
}

// TypesContext is Types under a caller deadline.
func (c *Client) TypesContext(ctx context.Context) ([]core.Info, error) {
	resp, err := c.roundTripContext(ctx, request{Op: "types"})
	return resp.Infos, err
}

// BreakerState returns the circuit breaker's current state.
func (c *Client) BreakerState() BreakerState { return c.breaker.state() }

// FaultCounts is a snapshot of the client's fault-plane counters — the
// same numbers exposed as /parcels{...}/count/{errors,retries,timeouts}.
type FaultCounts struct {
	Errors, Retries, Timeouts int64
}

// FaultCounts snapshots the client's transport failure counters.
func (c *Client) FaultCounts() FaultCounts {
	return FaultCounts{
		Errors:   c.meters.errors.Load(),
		Retries:  c.meters.retries.Load(),
		Timeouts: c.meters.timeouts.Load(),
	}
}

// RemoteCounter adapts one remote counter to the local core.Counter
// interface, so meta counters and tooling can consume remote data
// transparently — the uniformity the paper's framework is built on.
type RemoteCounter struct {
	client  *Client
	name    core.Name
	nameStr string
	info    core.Info
}

// NewRemoteCounter builds a counter proxy for a full remote name.
func NewRemoteCounter(client *Client, fullName string) (*RemoteCounter, error) {
	n, err := core.ParseName(fullName)
	if err != nil {
		return nil, err
	}
	return &RemoteCounter{
		client:  client,
		name:    n,
		nameStr: n.String(),
		info:    core.Info{TypeName: n.TypeName(), HelpText: "remote proxy for " + fullName},
	}, nil
}

// Name implements core.Counter.
func (r *RemoteCounter) Name() core.Name { return r.name }

// Info implements core.Counter.
func (r *RemoteCounter) Info() core.Info { return r.info }

// Value implements core.Counter. With ServeStale enabled on the client,
// an unreachable endpoint yields the last reading as StatusStale.
func (r *RemoteCounter) Value(reset bool) core.Value {
	v, err := r.client.Evaluate(r.nameStr, reset)
	if err != nil {
		return core.Value{Name: r.nameStr, Status: core.StatusInvalidData}
	}
	return v
}

// Reset implements core.Counter.
func (r *RemoteCounter) Reset() { _, _ = r.client.Evaluate(r.nameStr, true) }
