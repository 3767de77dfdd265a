package parcel

// FuzzParcelDecode drives the server's whole per-request decode path —
// processLine, exactly what a connection handler feeds it — with
// arbitrary bytes. The contract under fuzzing: a malformed parcel
// yields a ProtocolError-coded response, a well-formed one yields a
// normal response under the request's id, and NOTHING panics or wedges
// the handler. The spawn ops ride the same path, so hostile keys, key
// lists, budgets and request ids are covered too.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// opSeeds holds well-formed requests for every op in the table, so
// mutation explores the dispatch paths and not just the JSON error
// path. They are marshalled from the request struct itself: a seed
// cannot misspell a wire field. TestOpTable fails if an op has none.
var opSeeds = map[string][]request{
	"types":     {{}},
	"discover":  {{Pattern: "/threads{locality#0/worker-thread#*}/time/average"}},
	"bind_bulk": {{Names: []string{"/threads{locality#0/total}/count/cumulative"}}},
	"evaluate_bulk": {
		{SetID: 1},
		{SetID: 1, Reset: true},
		{Names: []string{"/threads{locality#0/total}/count/cumulative", "garbage"}},
		{Names: make([]string, maxBulkNames+1)}, // refused: over the names bound
	},
	"spawn": {
		{Action: "echo", Arg: json.RawMessage("3"), Key: "k1", BudgetMS: 50},
		{Action: "echo"},
		{Action: "missing", Key: "k2"},
	},
	"spawn_attach": {{Attach: []string{"k1", "k2"}}, {}},
	"spawn_cancel": {{Key: "k1"}},
	"tree_push": {
		{Tree: &TreeDigest{Root: 1, Gen: 1, Localities: 1, Entries: []core.Digest{}}},
		{Tree: &TreeDigest{Root: 2, Gen: 1, Localities: 1, Entries: []core.Digest{{
			Key: "/threads{locality#*/total}/idle-rate", Sum: 1, Min: 1, Max: 1, Count: 1,
			Hist: &core.HistogramSnapshot{Counts: []int64{1}, N: 1, Sum: 1},
		}}}},
		{},
	},
}

// fuzzSeeds renders opSeeds to wire lines and adds the lines no request
// struct can produce.
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	names := make([]string, 0, len(opSeeds))
	for op := range opSeeds {
		names = append(names, op)
	}
	sort.Strings(names) // a stable seed#N numbering across runs
	for _, op := range names {
		for _, req := range opSeeds[op] {
			req.Op = op
			line, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("seed for %q: %v", op, err)
			}
			seeds = append(seeds, line)
		}
	}
	for _, s := range []string{
		`{"op":"nonsense"}`,
		// Request ids: missing (every seed above), zero, given twice,
		// and the largest a signed peer could send.
		`{"id":0,"op":"types"}`,
		`{"id":3,"op":"types","id":4}`,
		`{"id":9223372036854775807,"op":"spawn_cancel","key":"k1"}`,
		`{"id":-1,"op":"types"}`,
		`{"op":"spawn","key":` + strings.Repeat(`[`, 64) + strings.Repeat(`]`, 64) + `}`,
		`not json at all`,
		`{"op":"spawn",`,
		`{}`,
		``,
		"\x00\xff\xfe",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// TestOpTable pins the wire protocol to its eight ops and fails when one
// lacks a handler, a retry class or a fuzz seed — or when a seed names
// an op the table does not hold.
func TestOpTable(t *testing.T) {
	want := []string{"bind_bulk", "discover", "evaluate_bulk", "spawn",
		"spawn_attach", "spawn_cancel", "tree_push", "types"}
	var got []string
	for name, op := range ops {
		got = append(got, name)
		if op.handle == nil {
			t.Errorf("op %q has no handler", name)
		}
		if op.retry < retryAlways || op.retry > retryNever {
			t.Errorf("op %q has no retry class (%d)", name, op.retry)
		}
		if len(opSeeds[name]) == 0 {
			t.Errorf("op %q has no fuzz seed", name)
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v, want exactly %v", got, want)
	}
	for name := range opSeeds {
		if _, ok := ops[name]; !ok {
			t.Errorf("fuzz seed for %q, which is not an op", name)
		}
	}
}

func FuzzParcelDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}

	reg := core.NewRegistry()
	c := core.NewRawCounter(
		core.Name{Object: "threads", Counter: "count/cumulative"}.
			WithInstances(core.LocalityInstance(0, "total", -1)...),
		core.Info{TypeName: "/threads/count/cumulative"})
	reg.MustRegister(c)
	srv, err := Serve("127.0.0.1:0", reg, 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close() })
	actions := NewActionMap()
	if err := RegisterAction(actions, "echo", func(v json.RawMessage) (json.RawMessage, error) {
		return v, nil
	}); err != nil {
		f.Fatal(err)
	}
	srv.WithActions(actions)
	srv.SetTreeNode(&stubTreeNode{})

	// Pushed states (spawn_attach answers with them) go to a peer that
	// reads and discards.
	peer, conn := net.Pipe()
	f.Cleanup(func() { peer.Close(); conn.Close() })
	go io.Copy(io.Discard, peer)
	w := &connWriter{s: srv, conn: conn, wr: bufio.NewWriter(conn)}

	f.Fuzz(func(t *testing.T, line []byte) {
		st := &connState{w: w}
		resp := srv.processLine(line, st)
		var probe request
		if json.Unmarshal(line, &probe) == nil {
			if resp.ID != probe.ID {
				t.Fatalf("line %q answered under id %d, want %d", line, resp.ID, probe.ID)
			}
		} else {
			// Malformed JSON MUST come back as a protocol error the
			// client can classify — never a silent success.
			if resp.Code != codeProtocol || resp.Error == "" {
				t.Fatalf("malformed line %q → %+v, want coded protocol error", line, resp)
			}
		}
		// Whatever happened, the response must survive the wire encode
		// the handler performs next.
		if _, err := json.Marshal(resp); err != nil {
			t.Fatalf("unmarshalable response for %q: %v", line, err)
		}
	})
}

// nopConn stands in for a socket where only Close is ever called.
type nopConn struct{ net.Conn }

func (nopConn) Close() error { return nil }

// FuzzClientFrame drives the client's demultiplexer — deliver, exactly
// what a link's reader feeds it — with arbitrary server frames while one
// call and one WaitSpawn are pending. The contract: a garbled or
// unsolicited frame costs the frame or the link, and NOTHING panics,
// loses the call, or wedges the waiter.
func FuzzClientFrame(f *testing.F) {
	for _, s := range []string{
		`{"id":1,"bulk":{"raw":[1],"status":[0],"time":[]}}`,
		`{"id":1,"bulk":{"raw":[1],"status":[0],"time":[5],"inverse":[1]}}`,
		`{"id":1,"bulk":{"raw":[1],"status":[0],"time":[5],"renamed":{"-1":"y"}}}`,
		`{"id":1,"error":"parcel: unknown op"}`,
		`{"error":"parcel: protocol: malformed request","code":"protocol"}`,
		`{"spawn":{"key":"k","state":"done","result":42}}`,
		`{"spawn":{"key":"k","state":"done","error":"boom","code":"action_error"}}`,
		`{"spawn":{"key":"k","state":"running"}}`,
		`{"spawn":{"key":"other","state":"done"}}`,
		`{"id":1,"spawn":{"key":"k","state":"done"}}`,
		`{"id":2}`,
		`{"id":9223372036854775807}`,
		`{"id":-1}`,
		`{"id":1,"id":0}`,
		`{}`,
		`[`,
		``,
		"\x00\xff\xfe",
	} {
		f.Add([]byte(s))
	}
	peer, conn := net.Pipe()
	f.Cleanup(func() { peer.Close() })
	cli, err := DialContext(context.Background(), "pipe", nil, 1, ClientOptions{
		Dialer: func(context.Context, string) (net.Conn, error) { return conn, nil }})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { cli.Close() })

	f.Fuzz(func(t *testing.T, line []byte) {
		call := make(chan response, 1)
		l := &link{conn: nopConn{}, calls: map[uint64]chan response{1: call}}
		wait := &spawnEntry{ch: make(chan spawnState, 1), waited: true}
		cli.spawns.mu.Lock()
		cli.spawns.entries = map[string]*spawnEntry{"k": wait}
		cli.spawns.mu.Unlock()

		err := cli.deliver(l, line)
		if err != nil {
			cli.drop(l, err) // what the reader does next
		}
		l.mu.Lock()
		held := l.calls[1] == call
		l.mu.Unlock()
		fates := 0 // of the pending call: answered, failed with the link, or still held
		select {
		case resp, open := <-call:
			if fates++; open == (err != nil) {
				t.Fatalf("frame %q (err %v): call answered=%v", line, err, open)
			}
			// The call was a one-name read: its answer decodes to an
			// error or to exactly that one value.
			if vals, derr := resp.Bulk.decode([]string{"x"}); open && derr == nil && len(vals) != 1 {
				t.Fatalf("frame %q decoded to %d values for one name", line, len(vals))
			}
		default:
		}
		if held {
			fates++
		}
		if fates != 1 || held && err != nil {
			t.Fatalf("frame %q (err %v): pending call has %d fates (held=%v), want exactly one and none held by a dropped link", line, err, fates, held)
		}
		cli.spawns.mu.Lock()
		tracked := cli.spawns.entries["k"] == wait
		cli.spawns.mu.Unlock()
		if tracked == (len(wait.ch) == 1) {
			t.Fatalf("frame %q: waiter tracked=%v with %d completions — lost or delivered twice", line, tracked, len(wait.ch))
		}
	})
}

// FuzzBulkAnswer decodes arbitrary evaluate_bulk answers against a
// fixed base of K names — what the client does with every remote read.
// The contract: an error, or exactly K values, each named; never a
// panic.
func FuzzBulkAnswer(f *testing.F) {
	const k = 4
	base := []string{"/a{locality#0/total}/x", "/b{locality#0/total}/x", "/c{locality#0/total}/x", "/d{locality#0/total}/x"}
	now := time.Unix(1_700_000_000, 123)
	vals := []core.Value{
		{Name: base[0], Raw: -5, Time: now, Status: core.StatusNewData},
		{Name: "/b{locality#0/total}/x-renamed", Scaling: 1000, Count: 3, Inverse: true, Time: now.Add(time.Microsecond)},
		{Name: base[2], Status: core.StatusCounterUnknown},
		{Name: base[3], Raw: 1 << 62, Time: time.Unix(-1, 0)},
	}
	var ans bulkValues
	ans.encode(vals, base)
	valid, err := json.Marshal(&ans)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, s := range []string{
		`{"raw":[1,2,3,4],"status":[0,0,0,0],"time":[0,1,2,3]}`,
		`{"raw":[1,2,3],"status":[0,0,0,0],"time":[0,1,2,3]}`,                       // short column
		`{"raw":[1,2,3,4],"status":[0,0,0,0],"time":[0,1,2,3],"scaling":[1]}`,       // short sparse column
		`{"raw":[1,2,3,4],"status":[0,0,0,0],"time":[0,1,2,3],"inverse":[4]}`,       // inverse out of range
		`{"raw":[1,2,3,4],"status":[0,0,0,0],"time":[0,1,2,3],"no_time":[-1]}`,      // no_time out of range
		`{"raw":[1,2,3,4],"status":[0,0,0,0],"time":[0,1,2,3],"renamed":{"9":"z"}}`, // renamed out of range
		`{"raw":[1,2,3,4],"status":[0,0,0,0],"time":[9223372036854775807,1,2,-9223372036854775808]}`,
		`{"raw":null,"status":null,"time":null}`,
		`null`,
		`{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b *bulkValues
		if json.Unmarshal(data, &b) != nil {
			return
		}
		got, err := b.decode(base)
		if err != nil {
			return
		}
		if len(got) != k {
			t.Fatalf("answer %q decoded to %d values for %d names", data, len(got), k)
		}
		for i, v := range got {
			if _, renamed := b.Renamed[i]; !renamed && v.Name != base[i] {
				t.Fatalf("answer %q: slot %d named %q, want the base's %q", data, i, v.Name, base[i])
			}
		}
	})
}

// FuzzBulkColumn checks the hand-written column parser against
// encoding/json: for any valid JSON, decoding into column[int64] and
// []int64 (and column[int] and []int) must agree on accept/reject and,
// on accept, on every value. A nil and an empty column count as equal.
func FuzzBulkColumn(f *testing.F) {
	for _, s := range []string{
		`[]`, `null`, `[null]`, `[-0]`, `[1.0]`, `[1e3]`,
		`[9223372036854775807]`, `[9223372036854775808]`,
		`[-9223372036854775808]`, `[-9223372036854775809]`,
		" [ 1 ,\t-2\n,\rnull ] ", `["1"]`, `[[1]]`, `[true]`, `{}`,
		`[0,1,-1,2147483647,2147483648,-2147483649]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		agree(t, data, new(column[int64]), new([]int64))
		agree(t, data, new(column[int]), new([]int))
	})
}

// agree decodes data into the column and into the plain slice of the
// same element type and fails the test if the two disagree.
func agree[T ~int | ~int64](t *testing.T, data []byte, col *column[T], plain *[]T) {
	t.Helper()
	colErr, plainErr := json.Unmarshal(data, col), json.Unmarshal(data, plain)
	if (colErr == nil) != (plainErr == nil) {
		t.Fatalf("%q into %T: column error %v, encoding/json error %v", data, col, colErr, plainErr)
	}
	if colErr != nil {
		return
	}
	if len(*col) != len(*plain) {
		t.Fatalf("%q into %T: column %v, encoding/json %v", data, col, *col, *plain)
	}
	for i := range *plain {
		if (*col)[i] != (*plain)[i] {
			t.Fatalf("%q into %T: column %v, encoding/json %v", data, col, *col, *plain)
		}
	}
}

// FuzzFrame checks the client's frame decoder against encoding/json:
// for any line, decodeFrame and json.Unmarshal must agree on
// accept/reject and, on accept, leave equal responses. The seeds are
// every frame kind the server writes, marshalled from the response
// struct, and each input the one-pass path must leave to
// encoding/json.
func FuzzFrame(f *testing.F) {
	now := time.Unix(1_700_000_000, 123)
	base := []string{"/a{locality#0/total}/x", "/b{locality#0/total}/x", "/c{locality#0/total}/x"}
	var bulk bulkValues // every column and renamed
	bulk.encode([]core.Value{
		{Name: base[0], Raw: -5, Time: now, Status: core.StatusNewData},
		{Name: "/b{locality#0/total}/y", Scaling: 1000, Count: 3, Inverse: true, Time: now.Add(time.Microsecond)},
		{Name: base[2], Raw: 1 << 62, Status: core.StatusCounterUnknown},
	}, base)
	for _, r := range []response{
		{ID: 7, Bulk: &bulk},
		{ID: 1 << 40, SetID: 3},
		{ID: 2, Error: "parcel: protocol: malformed request", Code: codeProtocol},
		{ID: 4, Spawn: &spawnState{Key: "k", Action: "echo", State: spawnRunning}},
		{Spawn: &spawnState{Key: "k", State: spawnDone, Result: json.RawMessage(`"ok"`)}},
		{Spawn: &spawnState{Key: "k", State: spawnDone, Result: json.RawMessage(`-0.5E+2`)}},
		{Spawn: &spawnState{Key: "k", State: spawnDone, Error: "boom", Code: codeActionError}},
		{ID: 5, Names: []string{base[0], base[1]}},
		{ID: 6, Infos: []core.Info{{TypeName: "/threads/count/cumulative", HelpText: "tasks", Version: "1.0"}}},
	} {
		line, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		if r.Names == nil && r.Infos == nil && object(line, frameKeys, new(response).member) != len(line) {
			f.Fatalf("server frame %s misses the one-pass path", line)
		}
		f.Add(append(line, '\n'))
	}
	for _, s := range []string{
		`{"id":1,"bulk":{"raw":[1,null],"status":null,"time":[]},"set_id":-2}`,
		`{"spawn":{"key":"k","state":"done","result":"é"}}`,
		`{"spawn":{"key":"k","result":true}}`, `{"spawn":{"result":null}}`, `{"spawn":{"result":01}}`,
		`{"bulk":{"renamed":{}}}`, `{"bulk":{"renamed":{"0":"a","0":"b"}}}`, `{}`,
		// What the one-pass path leaves to encoding/json: whitespace,
		// null, repeated keys (the second bulk, spawn or renamed merges
		// into the first), case-folded and unknown keys, escapes,
		// control bytes, invalid UTF-8, an id above MaxInt64, a
		// non-canonical slot, a result that is not a number, a plain
		// string or a literal.
		` {"id":1}`, `{"id": 1}`, `{"id":1} `, "{\"id\":1}\r\n", `null`, `{"bulk":null}`,
		`{"bulk":{"raw":[1]},"bulk":{"time":[2]}}`,
		`{"spawn":{"key":"k"},"spawn":{"state":"done"}}`,
		`{"bulk":{"renamed":{"1":"a"},"renamed":{"2":"b"}}}`,
		`{"id":1,"id":2}`, `{"ID":1}`, `{"Bulk":{"RAW":[1]}}`, `{"names":["a"],"other":1}`,
		`{"error":"a\nb"}`, `{"error":"\u0041"}`, `{"\u0069d":1}`, "{\"error\":\"a\tb\"}",
		"{\"error\":\"\xff\"}", "{\"spawn\":{\"key\":\"\xed\xa0\x80\"}}",
		`{"id":9223372036854775808}`, `{"id":-1}`, `{"id":1.0}`, `{"id":"1"}`,
		`{"bulk":{"renamed":{"01":"a"}}}`, `{"bulk":{"renamed":{"+1":"a"}}}`, `{"bulk":{"renamed":{"-0":"a"}}}`,
		`{"spawn":{"result":{"a":1}}}`, `{"spawn":{"result":[1]}}`, `{"spawn":{"result":"a\"b"}}`,
		`{"bulk":{"raw":[1,"]"]}}`, `{"bulk":{"raw":[[1]]}}`, `{"id":1,}`, `{"id":1`, ``, "\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var got, want response
		gotErr, wantErr := decodeFrame(line, &got), json.Unmarshal(line, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("frame %q: decodeFrame error %v, encoding/json error %v", line, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %q: decodeFrame %+v, encoding/json %+v", line, got, want)
		}
	})
}
