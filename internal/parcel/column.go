package parcel

import (
	"bytes"
	"errors"
	"math"
)

// column is one integer column of a bulkValues answer. It marshals as
// its underlying slice (there is no MarshalJSON, so the server's frames
// are plain encoding/json output) and unmarshals in one hand-written
// pass: encoding/json reflects on every element, which costs more than
// half of a 128-counter read's CPU.
type column[T ~int | ~int64] []T

var errColumn = errors.New("parcel: bulk column is not an array of integers")

// UnmarshalJSON parses a JSON array of integers. It accepts exactly what
// encoding/json accepts into a []T and yields the same values: null
// leaves the column nil, a null element reads 0, and an element that is
// a fraction, has an exponent, overflows T or is not a number fails the
// whole column.
func (c *column[T]) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*c = nil
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return errColumn
	}
	body := data[1 : len(data)-1]
	out := make(column[T], 0, bytes.Count(body, comma)+1)
	for i := skipSpace(body, 0); i < len(body); {
		v, n, ok := parseElem[T](body[i:])
		if !ok {
			return errColumn
		}
		out = append(out, v)
		if i = skipSpace(body, i+n); i == len(body) {
			break
		}
		if body[i] != ',' {
			return errColumn
		}
		if i = skipSpace(body, i+1); i == len(body) { // a trailing comma
			return errColumn
		}
	}
	*c = out
	return nil
}

var null, comma = []byte("null"), []byte(",")

// parseElem reads one array element at the start of d, null or a JSON
// integer that fits T, and returns it with the number of bytes it used.
func parseElem[T ~int | ~int64](d []byte) (v T, n int, ok bool) {
	if bytes.HasPrefix(d, null) {
		return 0, len(null), true
	}
	neg := len(d) > 0 && d[0] == '-'
	if neg {
		n = 1
	}
	start := n
	var u uint64 // the magnitude, at most 1<<63
	for ; n < len(d) && '0' <= d[n] && d[n] <= '9'; n++ {
		if u > (1<<63)/10 {
			return 0, 0, false
		}
		if u = u*10 + uint64(d[n]-'0'); u > 1<<63 {
			return 0, 0, false
		}
	}
	if n == start || d[start] == '0' && n > start+1 { // no digits, or a leading zero
		return 0, 0, false
	}
	var x int64
	switch {
	case neg:
		x = int64(-u) // -(1<<63) wraps to math.MinInt64
	case u > math.MaxInt64:
		return 0, 0, false
	default:
		x = int64(u)
	}
	if v = T(x); int64(v) != x {
		return 0, 0, false
	}
	return v, n, true
}

// skipSpace returns the index of the first byte at or after i in d that
// is not JSON whitespace.
func skipSpace(d []byte, i int) int {
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	return i
}
