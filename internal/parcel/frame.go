package parcel

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decodeFrame decodes one server frame, a line with or without its
// newline, into resp. A frame in the compact form the server's
// json.Marshal writes decodes in one pass: encoding/json would scan it
// twice (once to validate the line, once more to skip each column)
// before the column parser saw a byte. Every other input goes to
// json.Unmarshal on a zeroed resp, which owns every error: whitespace,
// null, a repeated or unknown key (encoding/json merges the one and
// matches keys case-insensitively), an escaped or non-UTF-8 string, an
// id above MaxInt64, and so on. Either way resp ends exactly as
// json.Unmarshal leaves it (FuzzFrame).
func decodeFrame(line []byte, resp *response) error {
	d := bytes.TrimSuffix(line, newline)
	if *resp = (response{}); len(d) > 0 && object(d, frameKeys, resp.member) == len(d) {
		return nil
	}
	*resp = response{}
	return json.Unmarshal(line, resp)
}

var newline = []byte("\n")

// The keys each object level takes, as json.Marshal spells them; the
// level's member method takes them by index, in this order.
var (
	frameKeys = []string{"id", "error", "code", "set_id", "bulk", "spawn"}
	bulkKeys  = []string{"raw", "status", "time", "no_time", "scaling", "count", "inverse", "renamed"}
	spawnKeys = []string{"key", "action", "state", "error", "code", "result"}
)

// object walks the compact JSON object at the start of d and returns
// its length, or 0 when the fast path does not take it. member parses
// one member's value at the start of v and returns the bytes it used,
// or 0 to refuse. With keys set, each key must be one of them, at most
// once, and member gets its index; with keys nil (a map) member gets
// the key and index -1.
func object(d []byte, keys []string, member func(i int, key, v []byte) int) int {
	if len(d) < 2 || d[0] != '{' {
		return 0
	}
	if d[1] == '}' {
		return 2
	}
	var seen uint64
	for i := 1; ; {
		k := stringLen(d[i:])
		if k == 0 || i+k+1 >= len(d) || d[i+k] != ':' {
			return 0
		}
		key, at := d[i+1:i+k-1], -1
		if keys != nil {
			for at = 0; at < len(keys) && keys[at] != string(key); at++ {
			}
			if at == len(keys) || seen&(1<<at) != 0 {
				return 0
			}
			seen |= 1 << at
		}
		i += k + 1
		n := member(at, key, d[i:])
		if i += n; n == 0 || i == len(d) {
			return 0
		}
		switch d[i] {
		case '}':
			return i + 1
		case ',':
			if i++; i == len(d) {
				return 0
			}
		default:
			return 0
		}
	}
}

func (r *response) member(i int, _, v []byte) int {
	switch i {
	case 0:
		if v[0] == '-' {
			return 0
		}
		var id int64
		n := integer(v, &id)
		r.ID = uint64(id)
		return n
	case 1:
		return str(v, &r.Error)
	case 2:
		return str(v, &r.Code)
	case 3:
		return integer(v, &r.SetID)
	case 4:
		r.Bulk = new(bulkValues)
		return object(v, bulkKeys, r.Bulk.member)
	default:
		r.Spawn = new(spawnState)
		return object(v, spawnKeys, r.Spawn.member)
	}
}

func (b *bulkValues) member(i int, _, v []byte) int {
	if i < 7 {
		return col(v, [...]json.Unmarshaler{&b.Raw, &b.Status, &b.Time, &b.NoTime, &b.Scaling, &b.Count, &b.Inverse}[i])
	}
	b.Renamed = make(map[int]string)
	return object(v, nil, func(_ int, key, v []byte) int {
		slot, err := strconv.Atoi(string(key))
		if err != nil || strconv.Itoa(slot) != string(key) {
			return 0 // encoding/json also takes "+1" or "01" for slot 1
		}
		var name string
		n := str(v, &name)
		b.Renamed[slot] = name
		return n
	})
}

func (s *spawnState) member(i int, _, v []byte) int {
	if i < 5 {
		return str(v, [...]*string{&s.Key, &s.Action, &s.State, &s.Error, &s.Code}[i])
	}
	n := stringLen(v)
	if n == 0 {
		n = scalarLen(v)
	}
	s.Result = append(json.RawMessage(nil), v[:n]...)
	return n
}

// col parses the column at the start of v, null or an array up to its
// first ']', with the column's own parser.
func col(v []byte, c json.Unmarshaler) int {
	n := len(null)
	if v[0] == '[' {
		n = bytes.IndexByte(v, ']') + 1
	}
	if n == 0 || n > len(v) || c.UnmarshalJSON(v[:n]) != nil {
		return 0
	}
	return n
}

// integer parses the integer or null at the start of v into dst.
func integer(v []byte, dst *int64) int {
	x, n, ok := parseElem[int64](v)
	if !ok {
		return 0
	}
	*dst = x
	return n
}

// str parses the plain string at the start of v into dst.
func str(v []byte, dst *string) int {
	n := stringLen(v)
	if n > 0 {
		*dst = string(v[1 : n-1])
	}
	return n
}

// stringLen returns the length of the string at the start of v, quotes
// included, or 0 unless it is plain: no escape, no control byte, valid
// UTF-8. json.Marshal writes every string that needs no escape so.
func stringLen(v []byte) int {
	if len(v) == 0 || v[0] != '"' {
		return 0
	}
	ascii := true
	for i := 1; i < len(v); i++ {
		switch c := v[i]; {
		case c == '"':
			if !ascii && !utf8.Valid(v[1:i]) {
				return 0
			}
			return i + 1
		case c == '\\' || c < 0x20:
			return 0
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return 0
}

// scalarLen returns the length of the number or literal at the start
// of v, or 0 if there is none.
func scalarLen(v []byte) int {
	n := 0
	for n < len(v) && strings.IndexByte("+-.0123456789Eeflnrstu", v[n]) >= 0 {
		n++
	}
	if n == 0 || !json.Valid(v[:n]) {
		return 0
	}
	return n
}
