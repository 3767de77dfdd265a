package parcel

// The fault-tolerant client side of the parcel transport. Every remote
// call runs under a deadline (context and/or per-attempt timeout), the
// single full-duplex TCP connection (calls overlap, matched to responses
// by request id) is re-established transparently after a failure,
// idempotent requests are retried with exponential backoff and jitter,
// a circuit breaker fast-fails a persistently dead endpoint,
// and — when enabled — Evaluate serves last-known values tagged
// core.StatusStale while the endpoint is unreachable, so a monitor
// degrades instead of dying with the thing it observes.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	// Timeout is the per-attempt deadline covering one call's write and
	// the wait for its response (and a reconnect, if needed). Default
	// 10s; negative disables. A context deadline, when earlier, wins.
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

// Client queries a remote registry. It is safe for concurrent use: calls
// share the single connection without waiting for each other, and it is
// re-dialled transparently after transport failures.
type Client struct {
	addr    string
	opts    ClientOptions
	meters  *meters
	breaker *breaker

	// wsem (one slot) serialises dials, frame writes and a fresh link's
	// first exchange; a call waits for it no longer than its own deadline.
	// link is nil from a failure to the next re-dial.
	wsem   chan struct{}
	link   atomic.Pointer[link]
	nextID atomic.Uint64
	wg     sync.WaitGroup // the links' readers and the heartbeat

	// rngMu guards the jitter PRNG alone: a retry's backoff must not wait
	// for somebody else's dial or blocked write to start sleeping.
	rngMu sync.Mutex
	rng   *rand.Rand

	// connGen counts connection establishments. Bulk sets record the
	// generation they were bound on (spawn keys: attached on); a mismatch
	// means the server-side state died with the old connection and the
	// client re-binds (re-attaches) instead of finding out by failing.
	connGen atomic.Uint64

	// The spawn plane (spawn.go): spawns awaiting their pushed
	// completion, and the idempotency-key source.
	spawns     spawnWaits
	spawnEpoch int64
	spawnSeq   atomic.Int64

	cacheMu sync.Mutex
	cache   map[string]core.Value

	// life ends at Close; closeMu orders that against installing a link,
	// so Close sees the one it must drop.
	closeMu sync.Mutex
	life    context.Context
	stop    context.CancelFunc
}

// link is one established connection and the calls in flight on it.
type link struct {
	conn   net.Conn
	mu     sync.Mutex
	calls  map[uint64]chan response // 1-buffered each; nil once the link failed
	err    error                    // why it failed
	proven atomic.Bool              // the server has answered on it
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
	m, err := newMeters(reg, locality)
	if err != nil {
		return nil, err
	}
	var gauge *core.RawCounter
	if reg != nil {
		gauge = core.NewLocalityRaw("parcels", "breaker/state", locality,
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
		wsem:       make(chan struct{}, 1),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		cache:      make(map[string]core.Value),
		spawns:     spawnWaits{entries: make(map[string]*spawnEntry), kick: make(chan struct{}, 1)},
		spawnEpoch: time.Now().UnixNano(),
	}
	c.life, c.stop = context.WithCancel(context.Background())
	dctx, cancel := c.attemptContext(ctx)
	defer cancel()
	if _, err := c.connect(dctx); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection first — calls in flight and pending
// WaitSpawns resolve ErrClientClosed — then waits for its goroutines.
func (c *Client) Close() (err error) {
	c.closeMu.Lock()
	c.stop()
	l := c.link.Load()
	c.closeMu.Unlock()
	if l != nil {
		err = c.drop(l, ErrClientClosed)
	}
	c.spawns.failAll(codeClientClosed, "")
	c.wg.Wait()
	return err
}

func (c *Client) isClosed() bool { return c.life.Err() != nil }

// connect returns the live link, dialling one (and starting its reader)
// if there is none. The caller holds wsem, or is the constructor.
func (c *Client) connect(ctx context.Context) (*link, error) {
	if l := c.link.Load(); l != nil {
		return l, nil
	}
	conn, err := c.opts.Dialer(ctx, c.addr)
	if err != nil {
		return nil, err
	}
	l := &link{conn: conn, calls: make(map[uint64]chan response)}
	c.closeMu.Lock()
	defer c.closeMu.Unlock()
	if c.isClosed() {
		conn.Close()
		return nil, ErrClientClosed
	}
	c.connGen.Add(1)
	c.link.Store(l)
	c.wg.Add(1)
	go c.read(l)
	return l, nil
}

// read demultiplexes a link: it routes every frame the server sends until
// the stream fails, then fails the link.
func (c *Client) read(l *link) {
	defer c.wg.Done()
	rd := bufio.NewReader(l.conn)
	for {
		line, err := rd.ReadBytes('\n')
		if err == nil {
			c.meters.received.Inc()
			c.meters.dataReceived.Add(int64(len(line)))
			err = c.deliver(l, line)
		}
		if err != nil {
			c.drop(l, err)
			return
		}
	}
}

// deliver routes one server frame: a response to the call holding its
// id, a pushed completion to the spawn table. A frame for an id nobody
// holds (its call gave up) is dropped; an error means the stream can no
// longer be trusted.
func (c *Client) deliver(l *link, line []byte) error {
	var resp response
	if err := decodeFrame(line, &resp); err != nil {
		return err // a garbled frame leaves the stream unframed; reconnect
	}
	c.breaker.record(true) // any well-formed frame proves the endpoint alive,
	l.proven.Store(true)   // and the link
	if resp.ID == 0 && resp.Spawn != nil {
		c.spawns.complete(*resp.Spawn)
		return nil
	}
	l.mu.Lock()
	id := resp.ID
	if id == 0 && len(l.calls) == 1 {
		// An unreadable request's error: the one call in flight's.
		for id = range l.calls {
		}
	}
	ch := l.calls[id]
	delete(l.calls, id)
	l.mu.Unlock()
	if ch != nil {
		ch <- resp
	} else if id == 0 {
		return &ProtocolError{Reason: "server rejected an unidentified request: " + resp.Error}
	}
	return nil
}

// drop fails a link: every call in flight on it resolves with err, the
// socket closes (stopping its reader) and the next call re-dials, so
// that any failure leaves the next attempt a clean start.
func (c *Client) drop(l *link, err error) error {
	c.link.CompareAndSwap(l, nil)
	l.mu.Lock()
	if l.calls != nil {
		c.breaker.record(false) // once per link, however many calls shared it
		l.err = err
		for _, ch := range l.calls {
			close(ch)
		}
		l.calls = nil
	}
	l.mu.Unlock()
	c.spawns.beatNow() // pending waits must attach to the next link
	return l.conn.Close()
}

// attemptContext derives the deadline of one attempt: the earlier of
// the caller's context deadline and now+Timeout.
func (c *Client) attemptContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.Timeout > 0 {
		return context.WithTimeout(ctx, c.opts.Timeout)
	}
	return context.WithCancel(ctx)
}

// roundTripContext performs one call — request out, response in — with
// reconnect, retry (idempotent requests only), backoff and breaker.
func (c *Client) roundTripContext(ctx context.Context, req request) (response, error) {
	// One id serves every attempt: a failed attempt's link is gone.
	req.ID = c.nextID.Add(1)
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
		resp, err := c.attempt(ctx, req.ID, out)
		if err == nil {
			if resp.Error != "" {
				// The server answered: transport is healthy, the request
				// itself failed. Never retried.
				return resp, &ServerError{Msg: resp.Error}
			}
			return resp, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, ErrClientClosed) {
			return response{}, err // given up, not failed
		}
		lastErr = err
		c.meters.errors.Inc()
		if isTimeout(err) {
			c.meters.timeouts.Inc()
		}
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

// attempt sends the frame once on the current link, dialling a fresh one
// if needed, and waits for the response carrying its id. A caller that
// gives up — cancelled, or past its own deadline — only abandons its id;
// the link is dropped when the per-attempt Timeout elapses under a
// caller still waiting, the sign of a black-holed connection.
func (c *Client) attempt(ctx context.Context, id uint64, frame []byte) (response, error) {
	actx, cancel := c.attemptContext(ctx)
	defer cancel()
	ch := make(chan response, 1)
	select {
	case c.wsem <- struct{}{}:
	case <-actx.Done():
		return response{}, mapDeadline(ctx, actx.Err()) // nothing sent
	}
	l, err := c.connect(actx)
	if err != nil {
		<-c.wsem
		if !errors.Is(err, context.Canceled) {
			c.breaker.record(false) // a failed link tells the breaker in drop
		}
		// Typed: nothing was sent, so the request definitely did not
		// execute — the spawn plane's licence to fail over.
		return response{}, &DialError{Err: mapDeadline(ctx, err)}
	}
	l.mu.Lock()
	if l.calls != nil {
		l.calls[id] = ch
	} else {
		close(ch) // the link failed under us
	}
	l.mu.Unlock()
	dl, _ := actx.Deadline() // zero: no deadline
	l.conn.SetWriteDeadline(dl)
	_, err = l.conn.Write(frame)
	if l.proven.Load() {
		<-c.wsem
	} else {
		// Slow start: a link carries one call at a time until the server
		// has answered on it, so no burst dies with a stillborn link.
		defer func() { <-c.wsem }()
	}
	if err != nil {
		c.drop(l, err)
		return response{}, mapDeadline(ctx, err)
	}
	c.meters.sent.Inc()
	c.meters.dataSent.Add(int64(len(frame)))
	select {
	case resp, ok := <-ch:
		if !ok {
			return response{}, mapDeadline(ctx, l.err)
		}
		return resp, nil
	case <-actx.Done():
		l.mu.Lock()
		delete(l.calls, id)
		l.mu.Unlock()
		if !callerExpired(ctx) {
			c.drop(l, net.ErrClosed) // for the calls sharing it: a transport error, not a timeout
		}
		return response{}, mapDeadline(ctx, actx.Err())
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
	if !isTimeout(err) || !callerExpired(ctx) {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// callerExpired reports whether the caller's context is done or past its
// deadline. The net poller and a timer can observe the shared deadline
// instant before the context's own timer callback has run, so ctx.Err()
// may still be nil for a miss that is genuinely the caller's: decide by
// clock.
func callerExpired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
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

// EvaluateContext is Evaluate under a caller deadline: a one-name
// EvaluateBulkContext, so it serves stale values exactly as that does. A
// name the server does not know is a *ServerError — never retried, never
// served stale.
func (c *Client) EvaluateContext(ctx context.Context, name string, reset bool) (core.Value, error) {
	vals, err := c.EvaluateBulkContext(ctx, []string{name}, reset)
	if err != nil {
		return core.Value{Name: name, Status: core.StatusCounterUnknown}, err
	}
	if vals[0].Status == core.StatusCounterUnknown {
		return vals[0], &ServerError{Msg: fmt.Sprintf("parcel: counter %q unknown on the server", name)}
	}
	return vals[0], nil
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
