// Request codec of the embed endpoints: the body is read once into a
// pooled buffer, the flat EmbedRequest envelope is scanned without
// reflection, and the reply is appended straight into a pooled buffer.
//
// Both directions keep encoding/json as the reference. The scanner takes
// only the shape json.Marshal writes for the scalar fields — exact key
// names, string / integer / true-false values, ASCII text — and hands
// every other body to json.Decoder on the same bytes, which then owns
// every error message, case-insensitive keys, null, non-ASCII text, the
// objective / metrics / allow fields and trailing data. The writer
// produces the bytes writeJSON(w, 200, embedResponseJSON(resp)) would:
// two-space indentation, HTML-safe escaping, sorted mapping keys,
// encoding/json float formatting and omitempty fields; a non-finite float
// answers the same 500. embedResponseJSON stays the wire form of /jobs,
// /embed/batch and /deltas, and the oracle the writer is tested against.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"netembed/internal/core"
	"netembed/internal/service"
)

// maxEmbedBodyBytes bounds the body of every embed request. The whole
// 296-site default host posted as a query is ≈7.6 MB of JSON; anything
// longer answers 413 before it is buffered.
const maxEmbedBodyBytes = 16 << 20

// codecBuf is the per-request scratch of the embed codec: the body (or
// the reply being written), the unescape buffer of the envelope scanner
// and the key-sort buffer of the writer.
type codecBuf struct {
	b    []byte
	tmp  []byte
	keys []string
}

var codecBufPool = sync.Pool{New: func() any { return new(codecBuf) }}

func getCodecBuf() *codecBuf { return codecBufPool.Get().(*codecBuf) }

// putCodecBuf recycles cb unless one of its buffers grew past
// maxPooledResponseBuf; the key buffer is cleared so it pins no strings.
func putCodecBuf(cb *codecBuf) {
	clear(cb.keys[:cap(cb.keys)])
	cb.keys = cb.keys[:0]
	if cap(cb.b) <= maxPooledResponseBuf && cap(cb.tmp) <= maxPooledResponseBuf {
		codecBufPool.Put(cb)
	}
}

// readBody reads r's body, at most maxEmbedBodyBytes of it, into a pooled
// buffer. A longer body fails with *http.MaxBytesError — at once when the
// Content-Length announces it, otherwise when the read crosses the limit.
func readBody(w http.ResponseWriter, r *http.Request) (*codecBuf, error) {
	if r.ContentLength > maxEmbedBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxEmbedBodyBytes}
	}
	cb := getCodecBuf()
	b := cb.b[:0]
	// Size the buffer from the announced length, but allocate no more
	// than a pooled buffer may hold before the bytes actually arrive.
	if n := int(min(r.ContentLength, maxPooledResponseBuf)); n >= cap(b) {
		b = make([]byte, 0, n+bytes.MinRead)
	}
	body := http.MaxBytesReader(w, r.Body, maxEmbedBodyBytes)
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(cap(b), bytes.MinRead))
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			cb.b = b
			putCodecBuf(cb)
			return nil, err
		}
	}
	cb.b = b
	return cb, nil
}

// readEmbedRequest reads and decodes the EmbedRequest body of r into req.
// It answers the error itself — 413 over maxEmbedBodyBytes, 400 with the
// decoder's message otherwise — and then returns false.
func readEmbedRequest(w http.ResponseWriter, r *http.Request, req *EmbedRequest) bool {
	cb, err := readBody(w, r)
	if err == nil {
		err = decodeEmbedBody(cb.b, req, &cb.tmp)
		putCodecBuf(cb)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return false
	case err != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
		return false
	}
	return true
}

// decodeEmbedBody decodes body into the zero request req: the envelope
// scanner when it takes the body, json.Decoder otherwise. tmp is the
// scanner's unescape buffer.
func decodeEmbedBody(body []byte, req *EmbedRequest, tmp *[]byte) error {
	sc := envelopeScanner{b: body, tmp: tmp}
	if sc.object(req) {
		return nil
	}
	*req = EmbedRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// envelopeScanner reads one flat JSON object into an EmbedRequest. Every
// method returns false on anything outside the subset it takes, which is
// the caller's cue to decode with encoding/json instead; the scanner
// never reports an error of its own.
type envelopeScanner struct {
	b   []byte
	i   int
	tmp *[]byte
}

func (sc *envelopeScanner) ws() {
	for sc.i < len(sc.b) {
		switch sc.b[sc.i] {
		case ' ', '\t', '\n', '\r':
			sc.i++
		default:
			return
		}
	}
}

func (sc *envelopeScanner) eat(c byte) bool {
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// object scans the whole object. Whatever follows its closing brace is
// left unread, as json.Decoder leaves it.
func (sc *envelopeScanner) object(req *EmbedRequest) bool {
	sc.ws()
	if !sc.eat('{') {
		return false
	}
	sc.ws()
	if sc.eat('}') {
		return true
	}
	for {
		key, ok := sc.key()
		if !ok {
			return false
		}
		sc.ws()
		if !sc.eat(':') {
			return false
		}
		sc.ws()
		if !sc.field(key, req) {
			return false
		}
		sc.ws()
		if sc.eat('}') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
		sc.ws()
	}
}

// key returns an object key free of escapes and non-ASCII bytes.
func (sc *envelopeScanner) key() ([]byte, bool) {
	if !sc.eat('"') {
		return nil, false
	}
	start := sc.i
	for sc.i < len(sc.b) {
		switch c := sc.b[sc.i]; {
		case c == '"':
			sc.i++
			return sc.b[start : sc.i-1], true
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return nil, false
		}
		sc.i++
	}
	return nil, false
}

// field decodes the value of the key named exactly as an EmbedRequest
// field of scalar type; any other key is not the scanner's.
func (sc *envelopeScanner) field(key []byte, req *EmbedRequest) bool {
	switch string(key) {
	case "query":
		return sc.str(&req.QueryGraphML)
	case "edgeConstraint":
		return sc.str(&req.EdgeConstraint)
	case "nodeConstraint":
		return sc.str(&req.NodeConstraint)
	case "algorithm":
		return sc.str(&req.Algorithm)
	case "capacityAttr":
		return sc.str(&req.CapacityAttr)
	case "demandAttr":
		return sc.str(&req.DemandAttr)
	case "delayAttr":
		return sc.str(&req.DelayAttr)
	case "windowLo":
		return sc.str(&req.WindowLo)
	case "windowHi":
		return sc.str(&req.WindowHi)
	case "timeoutMs":
		return sc.int(&req.TimeoutMs)
	case "maxResults":
		return sc.int(&req.MaxResults)
	case "maxHops":
		return sc.int(&req.MaxHops)
	case "seed":
		v, ok := sc.integer(64)
		req.Seed = v
		return ok
	case "excludeReserved":
		return sc.bool(&req.ExcludeReserved)
	case "dedupeSymmetric":
		return sc.bool(&req.DedupeSymmetric)
	}
	return false
}

// str decodes an ASCII string. Runs between escapes are copied whole, so
// the \u003c / \u003e json.Marshal writes for every GraphML tag cost one
// append each; a string without escapes is converted straight from the
// body.
func (sc *envelopeScanner) str(dst *string) bool {
	if !sc.eat('"') {
		return false
	}
	out := (*sc.tmp)[:0]
	escaped := false
	start := sc.i
	for sc.i < len(sc.b) {
		c := sc.b[sc.i]
		switch {
		case c == '"':
			if escaped {
				out = append(out, sc.b[start:sc.i]...)
				*dst = string(out)
				*sc.tmp = out
			} else {
				*dst = string(sc.b[start:sc.i])
			}
			sc.i++
			return true
		case c == '\\':
			out = append(out, sc.b[start:sc.i]...)
			e, ok := sc.escape()
			if !ok {
				return false
			}
			out = append(out, e)
			escaped = true
			start = sc.i
		case c < 0x20 || c >= utf8.RuneSelf:
			return false
		default:
			sc.i++
		}
	}
	return false
}

// escape consumes the escape sequence at sc.i and returns the byte it
// stands for. \u escapes above U+007F are left to the reference, which
// also owns surrogate pairs.
func (sc *envelopeScanner) escape() (byte, bool) {
	if sc.i+1 >= len(sc.b) {
		return 0, false
	}
	c := sc.b[sc.i+1]
	sc.i += 2
	switch c {
	case '"', '\\', '/':
		return c, true
	case 'b':
		return '\b', true
	case 'f':
		return '\f', true
	case 'n':
		return '\n', true
	case 'r':
		return '\r', true
	case 't':
		return '\t', true
	case 'u':
		if sc.i+4 > len(sc.b) {
			return 0, false
		}
		var r rune
		for _, h := range sc.b[sc.i : sc.i+4] {
			switch {
			case '0' <= h && h <= '9':
				r = r<<4 | rune(h-'0')
			case 'a' <= h && h <= 'f':
				r = r<<4 | rune(h-'a'+10)
			case 'A' <= h && h <= 'F':
				r = r<<4 | rune(h-'A'+10)
			default:
				return 0, false
			}
		}
		if r >= utf8.RuneSelf {
			return 0, false
		}
		sc.i += 4
		return byte(r), true
	}
	return 0, false
}

func (sc *envelopeScanner) int(dst *int) bool {
	v, ok := sc.integer(strconv.IntSize)
	*dst = int(v)
	return ok
}

// integer decodes a JSON integer literal that fits a signed integer of
// the given bit size. Fractions and exponents stop the scan at the '.'
// or 'e', where the caller then finds no ',' or '}' and gives up.
func (sc *envelopeScanner) integer(bits int) (int64, bool) {
	neg := sc.eat('-')
	if sc.i >= len(sc.b) || sc.b[sc.i] < '0' || sc.b[sc.i] > '9' {
		return 0, false
	}
	limit := uint64(1) << (bits - 1) // magnitude of the most negative value
	if !neg {
		limit--
	}
	var u uint64
	if sc.b[sc.i] == '0' {
		sc.i++
	} else {
		for sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9' {
			d := uint64(sc.b[sc.i] - '0')
			if u > (limit-d)/10 {
				return 0, false
			}
			u = u*10 + d
			sc.i++
		}
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

func (sc *envelopeScanner) bool(dst *bool) bool {
	rest := sc.b[sc.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		sc.i += 4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		sc.i += 5
	default:
		return false
	}
	return true
}

// writeEmbedResponse writes resp as the 200 reply of an embed endpoint,
// byte for byte what writeJSON(w, http.StatusOK, embedResponseJSON(resp))
// with Cached set to cached writes, without the reflection.
func writeEmbedResponse(w http.ResponseWriter, resp *service.Response, cached bool) {
	cb := getCodecBuf()
	status := http.StatusOK
	var b []byte
	if finiteFloats(resp) {
		b = appendEmbedResponse(cb.b[:0], resp, cached, &cb.keys)
	} else {
		// encoding/json refuses NaN and ±Inf; answer as writeJSON does.
		b = append(cb.b[:0], `{"error":"response encoding failed"}`+"\n"...)
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	cb.b = b
	putCodecBuf(cb)
}

// finiteFloats reports whether every float of resp's reply is finite.
// The elapsed times are durations over a constant and always are.
func finiteFloats(resp *service.Response) bool {
	finite := func(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }
	if resp.ObjectiveCost != nil && !finite(*resp.ObjectiveCost) {
		return false
	}
	for _, witnesses := range resp.Paths {
		for _, wt := range witnesses {
			if !finite(wt.Cost) {
				return false
			}
		}
	}
	return true
}

// appendEmbedResponse appends the indented EmbedResponse of resp and a
// newline to b; every float of resp must be finite. keys is the scratch
// the mapping keys are sorted in.
func appendEmbedResponse(b []byte, resp *service.Response, cached bool, keys *[]string) []byte {
	b = append(b, "{\n  \"status\": "...)
	b = appendJSONString(b, resp.Status.String())
	b = append(b, ",\n  \"mappings\": "...)
	if len(resp.Named) == 0 {
		b = append(b, "[]"...)
	} else {
		b = append(b, '[')
		for i, m := range resp.Named {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIndent(b, 2)
			b = appendStringMap(b, m, 2, keys)
		}
		b = append(b, "\n  ]"...)
	}
	if len(resp.Paths) > 0 {
		b = append(b, ",\n  \"paths\": ["...)
		for i, witnesses := range resp.Paths {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendIndent(b, 2)
			if len(witnesses) == 0 {
				b = append(b, "[]"...)
				continue
			}
			b = append(b, '[')
			for j, wt := range witnesses {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n      {\n        \"source\": "...)
				b = appendJSONString(b, wt.Source)
				b = append(b, ",\n        \"target\": "...)
				b = appendJSONString(b, wt.Target)
				b = append(b, ",\n        \"path\": "...)
				b = appendStringList(b, wt.Path, 4)
				b = append(b, ",\n        \"cost\": "...)
				b = appendJSONFloat(b, wt.Cost)
				b = append(b, "\n      }"...)
			}
			b = append(b, "\n    ]"...)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"modelVersion\": "...)
	b = strconv.AppendUint(b, resp.ModelVersion, 10)
	b = append(b, ",\n  \"elapsedMs\": "...)
	b = appendJSONFloat(b, float64(resp.Elapsed)/float64(time.Millisecond))
	b = append(b, ",\n  \"stats\": "...)
	b = appendStats(b, &resp.Stats)
	if cached {
		b = append(b, ",\n  \"cached\": true"...)
	}
	if resp.ObjectiveCost != nil {
		b = append(b, ",\n  \"objectiveCost\": "...)
		b = appendJSONFloat(b, *resp.ObjectiveCost)
	}
	if len(resp.Warnings) > 0 {
		b = append(b, ",\n  \"warnings\": "...)
		b = appendStringList(b, resp.Warnings, 1)
	}
	return append(b, "\n}\n"...)
}

// appendStats appends the stats object of the reply: the counters under
// the wire names embedResponseJSON gives them, in encoding/json's sorted
// key order.
//
//statsthread:fold core.Stats
func appendStats(b []byte, st *core.Stats) []byte {
	b = append(b, '{')
	b = appendStat(b, "backjumps", st.Backjumps, false)
	b = appendStat(b, "backtracks", st.Backtracks, true)
	b = appendStat(b, "boundCuts", st.BoundCuts, true)
	b = appendStat(b, "boundProbes", st.BoundProbes, true)
	b = appendStat(b, "constraintChk", st.ConstraintChk, true)
	b = appendStat(b, "edgePairsEval", st.EdgePairsEval, true)
	b = appendStat(b, "filterEntries", st.FilterEntries, true)
	b = appendStat(b, "incumbentUpdates", st.IncumbentUpdates, true)
	b = appendStat(b, "nodesVisited", st.NodesVisited, true)
	b = appendStat(b, "pruneOps", st.PruneOps, true)
	b = appendStat(b, "reachPrunes", st.ReachPrunes, true)
	b = appendStat(b, "steals", st.Steals, true)
	b = append(b, ",\n    \"timeToFirstMs\": "...)
	b = appendJSONFloat(b, float64(st.TimeToFirst)/float64(time.Millisecond))
	b = appendStat(b, "wipeoutDepthSum", st.WipeoutDepthSum, true)
	b = appendStat(b, "wipeouts", st.Wipeouts, true)
	b = appendStat(b, "witnessHits", st.WitnessHits, true)
	b = appendStat(b, "witnessProbes", st.WitnessProbes, true)
	return append(b, "\n  }"...)
}

func appendStat(b []byte, name string, v int64, comma bool) []byte {
	if comma {
		b = append(b, ',')
	}
	b = append(b, "\n    \""...)
	b = append(b, name...)
	b = append(b, "\": "...)
	return strconv.AppendInt(b, v, 10)
}

// appendIndent starts a new line at the given depth of two-space indents.
func appendIndent(b []byte, depth int) []byte {
	b = append(b, '\n')
	for range depth {
		b = append(b, "  "...)
	}
	return b
}

// appendStringMap appends m, an element at the given depth, as a JSON
// object with its keys sorted in *keys.
func appendStringMap(b []byte, m map[string]string, depth int, keys *[]string) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	if len(m) == 0 {
		return append(b, "{}"...)
	}
	ks := (*keys)[:0]
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	b = append(b, '{')
	for i, k := range ks {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIndent(b, depth+1)
		b = appendJSONString(b, k)
		b = append(b, ": "...)
		b = appendJSONString(b, m[k])
	}
	*keys = ks
	b = appendIndent(b, depth)
	return append(b, '}')
}

// appendStringList appends list, the value of a key at the given depth,
// as a JSON array of strings.
func appendStringList(b []byte, list []string, depth int) []byte {
	if list == nil {
		return append(b, "null"...)
	}
	if len(list) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range list {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIndent(b, depth+1)
		b = appendJSONString(b, s)
	}
	b = appendIndent(b, depth)
	return append(b, ']')
}

// appendJSONFloat formats a finite f as encoding/json does: shortest
// representation, exponent form below 1e-6 and from 1e21 on, with a
// two-digit negative exponent trimmed to one.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as an HTML-safe JSON string, escaped the way
// encoding/json escapes it: <, > and & as \u00XX, the short escapes for
// \b \f \n \r \t, other control bytes as \u00XX, invalid UTF-8 as
// \ufffd, and U+2028 / U+2029 as \u2028 / \u2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
