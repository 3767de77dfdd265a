// Package parcel is the network transport of the reproduction: a small
// TCP protocol (newline-delimited JSON parcels on one full-duplex,
// id-multiplexed connection: calls overlap, the server pushes spawn
// completions) that lets one process query the performance counters of
// another — the paper's remote counter access and the transport a
// distributed monitor (cmd/perfmon) attaches through.
//
// The transport is built to be *non-fatal to the application it
// observes* (docs/FAULTS.md): every remote call carries a deadline, the
// client transparently reconnects and retries idempotent requests with
// exponential backoff, a circuit breaker fast-fails a dead endpoint,
// and the client can serve last-known counter values tagged
// core.StatusStale while a locality is unreachable. The server bounds
// request sizes and applies per-connection read/write deadlines so a
// slow or malicious peer cannot wedge a handler.
//
// Parcel traffic — and the fault plane itself — is counted: both ends
// expose /parcels{locality#L/total}/count/{sent,received,errors,
// retries,timeouts}, /parcels{locality#L/total}/data/{sent,received}
// and the client a /parcels{locality#L/total}/breaker/state gauge,
// mirroring HPX's parcelport counter group. A monitor can watch the
// monitor.
package parcel

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// request is one parcel from client to server.
type request struct {
	ID      uint64          `json:"id,omitempty"` // echoed by the response: calls are matched by id, not by order
	Op      string          `json:"op"`           // a key of ops
	Pattern string          `json:"pattern,omitempty"`
	Reset   bool            `json:"reset,omitempty"`
	Action  string          `json:"action,omitempty"`
	Arg     json.RawMessage `json:"arg,omitempty"`
	Names   []string        `json:"names,omitempty"`  // bind_bulk, ad hoc evaluate_bulk: counter names
	SetID   int64           `json:"set_id,omitempty"` // evaluate_bulk: bound set to sample; 0 samples Names

	// Distributed-spawn fields (docs/FAULTS.md, "Remote spawn").
	Key      string   `json:"key,omitempty"`       // spawn/spawn_cancel: per-spawn idempotency key
	Attach   []string `json:"attach,omitempty"`    // spawn_attach: keys whose completions this connection wants
	BudgetMS int64    `json:"budget_ms,omitempty"` // spawn: client's remaining deadline budget

	// Aggregation-tree field (tree.go): tree_push carries one subtree
	// digest from a child to its parent.
	Tree *TreeDigest `json:"tree,omitempty"`
}

// retryClass says whether the transport may blindly re-send an op's
// request after a failure: the client cannot know whether the server
// executed a request whose response was lost, so only side-effect-free
// requests qualify. The zero value is deliberately not a class.
type retryClass int

const (
	retryAlways      retryClass = iota + 1 // side-effect free, or re-applying is a no-op
	retryUnlessReset                       // a read; its reset variant is destructive
	retryNever                             // may execute twice if re-sent
)

// ops is the wire protocol: every op the server dispatches, with its
// handler and its retry class, declared once. dispatch and
// request.idempotent read this table; the fuzz seeds are checked
// against it.
var ops = map[string]struct {
	handle func(*Server, request, *connState) response
	retry  retryClass
}{
	"discover": {(*Server).discover, retryAlways},
	"types":    {(*Server).types, retryAlways},
	// bind_bulk only compiles a name set into per-connection state;
	// re-binding after a lost response is harmless.
	"bind_bulk":     {(*Server).bindBulk, retryAlways},
	"evaluate_bulk": {(*Server).evaluateBulk, retryUnlessReset},
	// Re-sending spawn is safe thanks to the server's idempotency-key
	// dedupe table, but that retry is owned (and counted) by the spawn
	// plane, not re-sent blindly by the transport.
	"spawn": {(*Server).spawn, retryNever},
	// Attaching (the heartbeat) or cancelling twice does it once.
	"spawn_attach": {(*Server).spawnAttach, retryAlways},
	"spawn_cancel": {(*Server).spawnCancel, retryAlways},
	// Generation-keyed: the receiver keeps only the newest digest per
	// child subtree, so re-delivering one after a lost response is a
	// no-op (tree.go).
	"tree_push": {(*Server).treePush, retryAlways},
}

// idempotent reports whether the request can be safely re-sent after a
// transport failure (see retryClass). An op the table does not hold is
// never retried: the server will reject it anyway.
func (r request) idempotent() bool {
	class := ops[r.Op].retry
	return class == retryAlways || class == retryUnlessReset && !r.Reset
}

// response is one parcel from server to client. ID is the request's: 0
// on a pushed completion (Spawn set) or an unreadable request's error.
type response struct {
	ID    uint64      `json:"id,omitempty"`
	Error string      `json:"error,omitempty"`
	Code  string      `json:"code,omitempty"` // machine-readable error class (codeActionUnknown, ...)
	Bulk  *bulkValues `json:"bulk,omitempty"` // evaluate_bulk: the values, as columns (client_bulk.go)
	Names []string    `json:"names,omitempty"`
	Infos []core.Info `json:"infos,omitempty"`
	SetID int64       `json:"set_id,omitempty"` // bind_bulk: id of the compiled set
	Spawn *spawnState `json:"spawn,omitempty"`  // spawn/spawn_cancel: state of that spawn; pushed when it completes
}

// Machine-readable error classes carried in response.Code, so clients
// classify failures without string matching.
const (
	codeProtocol      = "protocol"       // malformed/oversized parcel
	codeActionUnknown = "action_unknown" // no such action registered
	codeActionError   = "action_error"   // the action body returned an error
	codeActionPanic   = "action_panic"   // the action body panicked
	codeCancelled     = "cancelled"      // spawn cancelled (cancel op, budget, orphan lease)
	codeSpawnUnknown  = "spawn_unknown"  // no spawn with that key on this server
	codeSpawnLimit    = "spawn_limit"    // server's spawn table is full
)

// ProtocolError is a typed wire-protocol violation: oversized or
// malformed parcels. The server reports it in the response and keeps
// the connection alive — bad input must never kill a handler.
type ProtocolError struct{ Reason string }

// Error implements error.
func (e *ProtocolError) Error() string { return "parcel: protocol: " + e.Reason }

// ErrParcelTooLarge is returned (and reported to the peer) when a
// request line exceeds the server's maximum parcel size.
var ErrParcelTooLarge = &ProtocolError{Reason: "parcel exceeds maximum size"}

// meters counts parcels, bytes and faults on one endpoint.
type meters struct {
	sent, received         *core.RawCounter
	dataSent, dataReceived *core.RawCounter
	errors                 *core.RawCounter // transport/protocol failures
	retries                *core.RawCounter // re-sent idempotent requests
	timeouts               *core.RawCounter // deadline-exceeded failures (subset of errors)

	// Client-side action fault split (never incremented by servers):
	// unknown-action rejections vs errors returned by the action body.
	actionUnknown *core.RawCounter
	actionErrors  *core.RawCounter
}

// newMeters builds an endpoint's meters and registers them into reg
// unless reg is nil.
func newMeters(reg *core.Registry, locality int64) (*meters, error) {
	mk := func(counter, help, unit string) *core.RawCounter {
		return core.NewLocalityRaw("parcels", counter, locality, help, unit)
	}
	m := &meters{
		sent:          mk("count/sent", "parcels sent", core.UnitEvents),
		received:      mk("count/received", "parcels received", core.UnitEvents),
		dataSent:      mk("data/sent", "parcel bytes sent", core.UnitBytes),
		dataReceived:  mk("data/received", "parcel bytes received", core.UnitBytes),
		errors:        mk("count/errors", "failed parcel exchanges (transport or protocol)", core.UnitEvents),
		retries:       mk("count/retries", "idempotent parcel requests re-sent after a failure", core.UnitEvents),
		timeouts:      mk("count/timeouts", "parcel exchanges that exceeded their deadline", core.UnitEvents),
		actionUnknown: mk("count/action-unknown", "invocations of actions the target does not register", core.UnitEvents),
		actionErrors:  mk("count/action-errors", "invocations whose action body returned an error", core.UnitEvents),
	}
	if reg == nil {
		return m, nil
	}
	for _, c := range []*core.RawCounter{m.sent, m.received, m.dataSent, m.dataReceived,
		m.errors, m.retries, m.timeouts, m.actionUnknown, m.actionErrors} {
		if err := reg.Register(c); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ServerOptions tunes the server's defensive limits. The zero value
// selects the defaults noted on each field.
type ServerOptions struct {
	// MaxParcelSize bounds one request line in bytes; oversized parcels
	// get an ErrParcelTooLarge response and the rest of the line is
	// discarded. Default 1 MiB.
	MaxParcelSize int
	// SpawnLease is the orphan threshold for remote spawns: a running
	// spawn whose client has neither touched it (spawn/attach/cancel) nor
	// sent a heartbeat on the connection it is attached to for this long
	// is cancelled and counted orphaned. Default 30s; negative disables
	// reaping.
	SpawnLease time.Duration
	// SpawnRetention is how long a completed spawn's result stays
	// available for dedupe and late attaches. Default 2m.
	SpawnRetention time.Duration
	// MaxSpawnTasks bounds the spawn table (running + retained entries);
	// further spawns are refused with codeSpawnLimit. Default 4096.
	MaxSpawnTasks int
}

// DefaultMaxParcelSize bounds a request line when ServerOptions leaves
// MaxParcelSize zero.
const DefaultMaxParcelSize = 1 << 20

const (
	// readTimeout is the maximum idle time waiting for the next request
	// on a connection before it is closed.
	readTimeout = 2 * time.Minute
	// writeTimeout is the per-response write budget.
	writeTimeout = 10 * time.Second
)

func (o ServerOptions) withDefaults() ServerOptions {
	if o.MaxParcelSize <= 0 {
		o.MaxParcelSize = DefaultMaxParcelSize
	}
	if o.SpawnLease == 0 {
		o.SpawnLease = 30 * time.Second
	}
	if o.SpawnRetention <= 0 {
		o.SpawnRetention = 2 * time.Minute
	}
	if o.MaxSpawnTasks <= 0 {
		o.MaxSpawnTasks = 4096
	}
	return o
}

// Server exposes a registry's counters over TCP.
type Server struct {
	reg      *core.Registry
	listener net.Listener
	meters   *meters
	opts     ServerOptions
	actions  atomic.Value // *ActionMap
	wg       sync.WaitGroup

	// treeNode, when set (SetTreeNode), serves the aggregation-tree op
	// tree_push (tree.go).
	treeNode atomic.Value // treeNodeHolder

	// spawns is the distributed-spawn task table (spawn.go): keyed by
	// idempotency key, leased against orphaning. baseCtx parents every
	// spawned action so Close cancels them all.
	spawns     *spawnTable
	reaper     *core.Ticker
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed chan struct{}
}

// Serve starts a server on addr (e.g. "127.0.0.1:0") exposing reg with
// default options. The server's parcel counters are registered into the
// same registry under the given locality id, so they are remotely
// queryable themselves.
func Serve(addr string, reg *core.Registry, locality int64) (*Server, error) {
	return ServeOptions(addr, reg, locality, ServerOptions{})
}

// ServeOptions is Serve with explicit defensive limits.
func ServeOptions(addr string, reg *core.Registry, locality int64, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServer(ln, reg, locality, opts)
}

// NewServer serves on an existing listener — the hook for wrapping the
// accept path in a fault-injection listener (package chaos).
func NewServer(ln net.Listener, reg *core.Registry, locality int64, opts ServerOptions) (*Server, error) {
	m, err := newMeters(reg, locality)
	if err != nil {
		ln.Close()
		return nil, err
	}
	s := &Server{
		reg: reg, listener: ln, meters: m, opts: opts.withDefaults(),
		conns: make(map[net.Conn]struct{}), closed: make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	orphaned := core.NewLocalityRaw("runtime", "remote/count/orphaned", locality,
		"remote spawns cancelled because their client lease expired", core.UnitEvents)
	if err := reg.Register(orphaned); err != nil {
		ln.Close()
		s.baseCancel()
		return nil, err
	}
	s.spawns = newSpawnTable(s.opts, orphaned)
	s.wg.Add(1)
	go s.acceptLoop()
	s.reaper = s.spawns.reaper()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the server: it closes the listener and every live
// connection, then waits for all handlers. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		s.reaper.Stop()
		s.wg.Wait()
		return nil
	default:
	}
	close(s.closed)
	err := s.listener.Close()
	// Force-close live connections so handlers blocked in a read return
	// immediately instead of wedging wg.Wait until the peer goes away.
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	// Cancel every in-flight spawned action; their goroutines are not on
	// the waitgroup (a stuck action must not wedge Close), but their
	// scopes die with the server.
	s.baseCancel()
	s.reaper.Stop()
	s.wg.Wait()
	return err
}

// track registers a new connection; it refuses (and the caller must
// close) connections accepted after Close started, which closes the
// window where an in-flight accept could leak a handler past wg.Wait.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Bounds on per-connection bulk-set state and on any one names list, so
// a misbehaving client cannot grow server memory without limit.
const (
	maxBulkSetsPerConn = 64
	maxBulkNames       = 4096
)

// errUnknownBulkSet prefixes the server error for an evaluate_bulk
// against a set id the connection does not hold (typically after a
// reconnect); clients match on it to re-bind transparently.
const errUnknownBulkSet = "parcel: unknown bulk set"

// connState is the per-connection server state: compiled bulk sets and
// a reused evaluation buffer and answer (each response is written before
// the next request is read). It lives and dies with one handler
// goroutine, so no locking is needed (w is shared, and locks itself).
type connState struct {
	bulkSets  map[int64]*core.BindSet
	nextSetID int64
	bulkBuf   []core.Value
	bulkAns   bulkValues
	w         *connWriter
}

// connWriter serialises the frames of one server connection: the read
// loop's responses and the completions that action goroutines push.
type connWriter struct {
	s    *Server
	conn net.Conn
	mu   sync.Mutex
	wr   *bufio.Writer
	beat atomic.Int64 // unix nanos of the last spawn_attach: the lease of every spawn attached here
}

// send writes one frame; flush=false leaves it buffered so a burst of
// requests is answered in one write. A failed write closes the
// connection, which ends its read loop.
func (w *connWriter) send(resp response, flush bool) error {
	out, err := json.Marshal(resp)
	if err != nil {
		out = []byte(fmt.Sprintf(`{"id":%d,"error":"parcel: response marshal failure"}`, resp.ID))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	// The newline is written apart: appending it would copy out.
	if _, err = w.wr.Write(out); err == nil {
		err = w.wr.WriteByte('\n')
	}
	if err == nil && flush {
		err = w.wr.Flush()
	}
	if err != nil {
		w.conn.Close()
		return err
	}
	w.s.meters.sent.Inc()
	w.s.meters.dataSent.Add(int64(len(out) + 1))
	return nil
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.untrack(conn)
	defer conn.Close()
	rd := bufio.NewReader(conn)
	st := &connState{w: &connWriter{s: s, conn: conn, wr: bufio.NewWriter(conn)}}
	for {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		line, err := readBoundedLine(rd, s.opts.MaxParcelSize)
		var resp response
		switch {
		case err == nil:
			s.meters.received.Inc()
			s.meters.dataReceived.Add(int64(len(line)))
			resp = s.processLine(line, st)
		case errors.Is(err, ErrParcelTooLarge):
			// The oversized line was drained; report and keep serving.
			s.meters.errors.Inc()
			resp.Error = fmt.Sprintf("%s (%d bytes max)", ErrParcelTooLarge.Error(), s.opts.MaxParcelSize)
		default:
			return // connection gone or idle deadline hit
		}
		// No handler blocks, so dispatch stays inline; flush once per
		// burst of already-buffered requests.
		if st.w.send(resp, rd.Buffered() == 0) != nil {
			return
		}
	}
}

// readBoundedLine reads one newline-terminated request, refusing lines
// over max bytes. On an oversized line it discards through the next
// newline and returns ErrParcelTooLarge, leaving the stream aligned on
// the following request.
func readBoundedLine(rd *bufio.Reader, max int) ([]byte, error) {
	var buf []byte
	for {
		chunk, err := rd.ReadSlice('\n')
		buf = append(buf, chunk...)
		switch {
		case err == nil:
			if len(buf) > max {
				return nil, ErrParcelTooLarge
			}
			return buf, nil
		case errors.Is(err, bufio.ErrBufferFull):
			if len(buf) > max {
				return nil, drainLine(rd)
			}
		default:
			return buf, err
		}
	}
}

// drainLine discards input through the next newline, then reports the
// oversized parcel; a transport error while draining wins, since the
// connection is unusable anyway.
func drainLine(rd *bufio.Reader) error {
	for {
		_, err := rd.ReadSlice('\n')
		switch {
		case err == nil:
			return ErrParcelTooLarge
		case errors.Is(err, bufio.ErrBufferFull):
			// keep draining
		default:
			return err
		}
	}
}

// processLine decodes one request line and dispatches it — the server's
// whole per-request decode path, factored out so FuzzParcelDecode can
// drive it directly: malformed parcels must yield a ProtocolError
// response, never a panic or a dead handler.
func (s *Server) processLine(line []byte, st *connState) response {
	var req request
	if jerr := json.Unmarshal(line, &req); jerr != nil {
		s.meters.errors.Inc()
		perr := &ProtocolError{Reason: "malformed request: " + jerr.Error()}
		return response{Error: perr.Error(), Code: codeProtocol}
	}
	resp := s.dispatch(req, st)
	resp.ID = req.ID
	return resp
}

func (s *Server) dispatch(req request, st *connState) response {
	op, ok := ops[req.Op]
	if !ok {
		return response{Error: fmt.Sprintf("parcel: unknown op %q", req.Op)}
	}
	return op.handle(s, req, st)
}

// bulkNamesError bounds a names list shipped by bind_bulk or by an ad
// hoc evaluate_bulk; "" means the list is acceptable.
func bulkNamesError(op string, names []string) string {
	switch {
	case len(names) == 0:
		return "parcel: " + op + " needs at least one name"
	case len(names) > maxBulkNames:
		return fmt.Sprintf("parcel: %s limited to %d names", op, maxBulkNames)
	}
	return ""
}

// bindBulk compiles the named counters once for this connection; later
// evaluate_bulk requests sample the whole set in one exchange. Binding
// is lenient: an unresolvable name degrades its slot to
// StatusCounterUnknown instead of failing the set.
func (s *Server) bindBulk(req request, st *connState) response {
	if msg := bulkNamesError(req.Op, req.Names); msg != "" {
		return response{Error: msg}
	}
	if st.bulkSets == nil {
		st.bulkSets = make(map[int64]*core.BindSet)
	}
	if len(st.bulkSets) >= maxBulkSetsPerConn {
		return response{Error: fmt.Sprintf("parcel: at most %d bulk sets per connection", maxBulkSetsPerConn)}
	}
	st.nextSetID++
	st.bulkSets[st.nextSetID] = s.reg.BindSetLenient(req.Names)
	return response{SetID: st.nextSetID, Names: st.bulkSets[st.nextSetID].Names()}
}

// evaluateBulk samples the bound set req.SetID or, when SetID is 0, the
// names the request carries: compiled (leniently, as bind_bulk does) for
// this one request and not kept. The answer names a slot only where its
// value's name differs from the names the client holds: the set's
// canonical names, or the names it sent.
func (s *Server) evaluateBulk(req request, st *connState) response {
	set, base := st.bulkSets[req.SetID], req.Names
	if req.SetID == 0 {
		if msg := bulkNamesError(req.Op, req.Names); msg != "" {
			return response{Error: msg}
		}
		set = s.reg.BindSetLenient(req.Names)
	} else if set == nil {
		return response{Error: fmt.Sprintf("%s %d", errUnknownBulkSet, req.SetID)}
	} else {
		base = set.Names()
	}
	st.bulkBuf = set.EvaluateBatch(st.bulkBuf, req.Reset)
	st.bulkAns.encode(st.bulkBuf, base)
	return response{Bulk: &st.bulkAns}
}

func (s *Server) discover(req request, _ *connState) response {
	names, err := s.reg.Discover(req.Pattern)
	if err != nil {
		return response{Error: err.Error()}
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n.String()
	}
	return response{Names: out}
}

func (s *Server) types(request, *connState) response {
	return response{Infos: s.reg.Types()}
}
