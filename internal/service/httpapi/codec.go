// Codec of the embed wire, at both of its levels: a client's /embed and
// the coordinator's fragments to a shard (RemoteShard). A body is read
// once into a pooled buffer, an envelope is scanned without reflection,
// and a reply or a fragment request is appended straight into a pooled
// buffer.
//
// Every direction keeps encoding/json as the reference, which owns every
// error message. The envelope scanner takes the shape json.Marshal writes
// — exact key names, string / integer / true-false values, ASCII text
// with escapes below U+0080 — for the scalar fields and allow, an object
// of string arrays (the coordinator's fragments carry one); every other
// body goes to json.Decoder on the same bytes: case-insensitive keys,
// null, non-ASCII text, escapes above U+007F, a repeated allow key, the
// objective / metrics fields and trailing data. The reply scanner takes
// what appendEmbedResponse writes into a shard's reply — status,
// mappings, modelVersion, elapsedMs, stats, cached, objectiveCost and
// warnings — and hands every other reply to json.Unmarshal and
// responseFromWire: paths, null, escaped or unknown keys, non-ASCII text,
// a repeated mappings list, and counters a float64 does not hold exactly.
//
// The reply writer produces the bytes writeJSON(w, 200,
// embedResponseJSON(resp)) would: two-space indentation, HTML-safe
// escaping, sorted mapping keys, encoding/json float formatting and
// omitempty fields; a non-finite float answers the same 500.
// embedResponseJSON stays the wire form of /jobs, /embed/batch and
// /deltas, and the oracle the writer is tested against. The fragment
// writer, appendEmbedRequest, produces json.Marshal's bytes, its oracle.
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

// maxBodyBytes bounds the body of every JSON request. The whole 296-site
// default host posted as a query is ≈7.6 MB of JSON; anything longer
// answers 413 before it is buffered.
const maxBodyBytes = 16 << 20

// maxModelBodyBytes bounds the GraphML body of PUT /model. The largest
// host netgen writes with its defaults, the 296-site PlanetLab one, is
// 4,793,967 bytes (28,996 edges); the bound leaves room for hosts with
// about seven times its edges, ≈780 sites at the paper's density.
const maxModelBodyBytes = 32 << 20

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

// readBody reads r's body, at most maxBodyBytes of it, into a pooled
// buffer. A longer body fails with *http.MaxBytesError — at once when the
// Content-Length announces it, otherwise when the read crosses the limit.
func readBody(w http.ResponseWriter, r *http.Request) (*codecBuf, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, &http.MaxBytesError{Limit: maxBodyBytes}
	}
	cb := getCodecBuf()
	b := cb.b[:0]
	// Size the buffer from the announced length, but allocate no more
	// than a pooled buffer may hold before the bytes actually arrive.
	if n := int(min(r.ContentLength, maxPooledResponseBuf)); n >= cap(b) {
		b = make([]byte, 0, n+bytes.MinRead)
	}
	// The loop is written out here, as in readReply: handed to a function
	// as an io.Reader, the limited body would escape, one allocation per
	// request.
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
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
// It answers a failure itself, as bodyOK does, and then returns false.
func readEmbedRequest(w http.ResponseWriter, r *http.Request, req *EmbedRequest) bool {
	cb, err := readBody(w, r)
	if err == nil {
		if err = decodeEmbedBody(cb.b, req, &cb.tmp); err != nil {
			err = fmt.Errorf("bad JSON: %w", err)
		}
		putCodecBuf(cb)
	}
	return bodyOK(w, err)
}

// readJSON decodes the JSON body of r, at most maxBodyBytes of it, into
// v. It answers a failure itself, as bodyOK does, and then returns false.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeBody(w, r, maxBodyBytes, func(body io.Reader) error {
		if err := json.NewDecoder(body).Decode(v); err != nil {
			return fmt.Errorf("bad JSON: %w", err)
		}
		return nil
	})
}

// decodeBody runs decode over the body of r cut at limit bytes; a longer
// body fails with *http.MaxBytesError, at once when the Content-Length
// announces it. It answers a failure itself, as bodyOK does, and then
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, decode func(io.Reader) error) bool {
	if r.ContentLength > limit {
		return bodyOK(w, &http.MaxBytesError{Limit: limit})
	}
	return bodyOK(w, decode(http.MaxBytesReader(w, r.Body, limit)))
}

// bodyOK reports whether reading a request body succeeded, and answers
// the failure otherwise: 413 when the body passed its bound, 400 with the
// error's message for anything else.
func bodyOK(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, tooLarge)
	} else {
		writeError(w, http.StatusBadRequest, err)
	}
	return false
}

// decodeEmbedBody decodes body into the zero request req: the envelope
// scanner when it takes the body, json.Decoder otherwise. tmp is the
// scanner's unescape buffer.
func decodeEmbedBody(body []byte, req *EmbedRequest, tmp *[]byte) error {
	sc := envelopeScanner{b: body, tmp: tmp}
	if sc.request(req) {
		return nil
	}
	*req = EmbedRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decodeEmbedResponse decodes a shard's embed reply: the envelope scanner
// when it takes the body, json.Unmarshal and responseFromWire otherwise.
// The scanner leaves paths to the reference: only path-mode fragments
// carry them, and their nested witnesses would double its reply table.
func decodeEmbedResponse(body []byte, tmp *[]byte) (*service.Response, error) {
	resp := new(service.Response)
	sc := envelopeScanner{b: body, tmp: tmp}
	if sc.reply(resp) {
		return resp, nil
	}
	var out EmbedResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("bad response JSON: %v", err)
	}
	return responseFromWire(&out)
}

// envelopeScanner reads the embed wire's JSON without reflection: a
// request envelope (request) or a shard's reply (reply), each through its
// own field table over the same primitives. Every method returns false on
// anything outside the subset it takes, which is the caller's cue to
// decode with encoding/json instead; the scanner never reports an error
// of its own.
type envelopeScanner struct {
	b   []byte
	i   int
	tmp *[]byte
}

// ws skips whitespace. The hot loops here and in key, text and digits
// keep the index in a local, so it lives in a register.
func (sc *envelopeScanner) ws() {
	b, i := sc.b, sc.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	sc.i = i
}

func (sc *envelopeScanner) eat(c byte) bool {
	if sc.i < len(sc.b) && sc.b[sc.i] == c {
		sc.i++
		return true
	}
	return false
}

// request scans a request envelope. Whatever follows its closing brace is
// left unread, as json.Decoder leaves it.
func (sc *envelopeScanner) request(req *EmbedRequest) bool {
	return sc.object(func(key []byte, _ bool) bool { return sc.requestField(key, req) })
}

// reply scans a whole reply body, as json.Unmarshal reads it: nothing but
// whitespace may follow the object, and it must name a status.
func (sc *envelopeScanner) reply(resp *service.Response) bool {
	status := false
	if !sc.object(func(key []byte, _ bool) bool { return sc.replyField(key, resp, &status) }) {
		return false
	}
	sc.ws()
	return status && sc.i == len(sc.b)
}

// object scans one object, handing each key to field with sc.i at its
// value. The key is the body's bytes between the quotes, escapes and all:
// a field table matches it as is, so no escaped key is a field's, and a
// key that is data is read with name.
func (sc *envelopeScanner) object(field func(key []byte, escaped bool) bool) bool {
	sc.ws()
	if !sc.eat('{') {
		return false
	}
	sc.ws()
	if sc.eat('}') {
		return true
	}
	for {
		key, escaped, ok := sc.key()
		if !ok {
			return false
		}
		sc.ws()
		if !sc.eat(':') {
			return false
		}
		sc.ws()
		if !field(key, escaped) {
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

// array scans one array, calling elem with sc.i at each element.
func (sc *envelopeScanner) array(elem func() bool) bool {
	if !sc.eat('[') {
		return false
	}
	sc.ws()
	if sc.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		sc.ws()
		if sc.eat(']') {
			return true
		}
		if !sc.eat(',') {
			return false
		}
		sc.ws()
	}
}

// key scans an ASCII object key and returns its bytes between the quotes
// as a slice of the body, escapes not undone.
func (sc *envelopeScanner) key() (raw []byte, escaped, ok bool) {
	if !sc.eat('"') {
		return nil, false, false
	}
	start := sc.i
	for {
		b, i := sc.b, sc.i
		for i < len(b) && plainText[b[i]] {
			i++
		}
		sc.i = i
		switch {
		case i == len(b) || b[i] < 0x20 || b[i] >= utf8.RuneSelf:
			return nil, false, false
		case b[i] == '"':
			sc.i++
			return b[start:i], escaped, true
		}
		if _, ok := sc.escape(); !ok {
			return nil, false, false
		}
		escaped = true
	}
}

// requestField decodes the value of the key named exactly as an
// EmbedRequest field the scanner takes: the scalars and allow.
func (sc *envelopeScanner) requestField(key []byte, req *EmbedRequest) bool {
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
	case "allow":
		return sc.allow(&req.Allow)
	}
	return false
}

// replyField decodes the value of the key named exactly as a field
// appendEmbedResponse writes, paths aside, into resp; status records that
// the status was read.
func (sc *envelopeScanner) replyField(key []byte, resp *service.Response, status *bool) bool {
	switch string(key) {
	case "status":
		s, escaped, ok := sc.text()
		if !ok || escaped {
			return false
		}
		switch string(s) {
		case "complete":
			resp.Status = core.StatusComplete
		case "partial":
			resp.Status = core.StatusPartial
		case "inconclusive":
			resp.Status = core.StatusInconclusive
		default:
			return false
		}
		*status = true
		return true
	case "mappings":
		// A repeated list decodes into the first one's maps in the
		// reference, merging them.
		return resp.Named == nil && sc.mappings(&resp.Named)
	case "modelVersion":
		v, ok := sc.digits(math.MaxUint64)
		resp.ModelVersion = v
		return ok
	case "elapsedMs":
		f, ok := sc.float()
		resp.Elapsed = time.Duration(f * float64(time.Millisecond))
		return ok
	case "stats":
		return sc.stats(&resp.Stats)
	case "cached":
		var cached bool // the coordinator keeps no cache flag of a shard
		return sc.bool(&cached)
	case "objectiveCost":
		f, ok := sc.float()
		resp.ObjectiveCost = &f
		return ok
	case "warnings":
		list := []string{}
		ok := sc.array(func() bool {
			var s string
			ok := sc.str(&s)
			list = append(list, s)
			return ok
		})
		resp.Warnings = list
		return ok
	}
	return false
}

// allow decodes the allow object, query node → host names, unless a key
// repeats (the reference keeps the last list) or an allow was read before
// (the reference merges the two). A first pass checks the shape and
// counts; the second makes one string of the object's bytes, whose
// substrings are every key and every name without escapes, and one array
// every list is a slice of: five allocations for a fragment's few keys,
// however many names they list.
func (sc *envelopeScanner) allow(dst *map[string][]string) bool {
	if *dst != nil {
		return false
	}
	start := sc.i
	keys, names := 0, 0
	if !sc.object(func([]byte, bool) bool {
		keys++
		return sc.array(func() bool {
			names++
			_, _, ok := sc.text()
			return ok
		})
	}) {
		return false
	}
	src := string(sc.b[start:sc.i])
	m := make(map[string][]string, keys)
	all := make([]string, names)
	sc.i, names = start, 0
	if !sc.object(func(key []byte, escaped bool) bool {
		first := names
		ok := sc.array(func() bool {
			s, ok := sc.substr(src, start)
			all[names] = s
			names++
			return ok
		})
		name := sc.name(src, start, key, escaped)
		if _, dup := m[name]; dup {
			return false
		}
		m[name] = all[first:names:names]
		return ok
	}) {
		return false
	}
	*dst = m
	return true
}

// mappings decodes a reply's list of named mappings, each null or an
// object of strings, unless the list is empty (the reference keeps no
// empty answer). Like allow, it counts first, then takes every key and
// value without escapes as a substring of one copy of the list's bytes.
func (sc *envelopeScanner) mappings(dst *[]service.NamedMapping) bool {
	start := sc.i
	n := 0
	if !sc.array(func() bool {
		n++
		return sc.null() || sc.object(func([]byte, bool) bool {
			_, _, ok := sc.text()
			return ok
		})
	}) {
		return false
	}
	if n == 0 {
		return true
	}
	src := string(sc.b[start:sc.i])
	list := make([]service.NamedMapping, 0, n)
	sc.i = start
	ok := sc.array(func() bool {
		if sc.null() {
			list = append(list, nil)
			return true
		}
		m := service.NamedMapping{}
		list = append(list, m)
		return sc.object(func(key []byte, escaped bool) bool {
			v, ok := sc.substr(src, start)
			m[sc.name(src, start, key, escaped)] = v
			return ok
		})
	})
	*dst = list
	return ok
}

// stats decodes a reply's stats object: every counter an integer the
// reference's float64 holds exactly, and timeToFirstMs. Like
// statsFromJSON, it hands every name to core.Stats.SetCounter.
func (sc *envelopeScanner) stats(st *core.Stats) bool {
	return sc.object(func(key []byte, escaped bool) bool {
		if escaped {
			return false // a counter's name, once unescaped
		}
		if string(key) == "timeToFirstMs" {
			ms, ok := sc.float()
			st.TimeToFirst = time.Duration(ms * float64(time.Millisecond))
			st.SetCounter("timeToFirstMs", int64(ms))
			return ok
		}
		v, ok := sc.integer(64)
		if !ok || v > 1<<53 || v < -1<<53 {
			return false
		}
		st.SetCounter(string(key), v)
		return true
	})
}

// plainText marks the bytes a string scan passes over: printable ASCII
// but for the quote and the backslash.
var plainText = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// text scans an ASCII string and returns its bytes: a slice of the body
// when it has no escapes, else the unescaped bytes in *sc.tmp, valid until
// the next call. Runs between escapes are copied whole, so the \u003c /
// \u003e json.Marshal writes for every GraphML tag cost one append each.
func (sc *envelopeScanner) text() (s []byte, escaped, ok bool) {
	if !sc.eat('"') {
		return nil, false, false
	}
	out := (*sc.tmp)[:0]
	start := sc.i
	for {
		b, i := sc.b, sc.i
		for i < len(b) && plainText[b[i]] {
			i++
		}
		sc.i = i
		switch {
		case i == len(b) || b[i] < 0x20 || b[i] >= utf8.RuneSelf:
			return nil, false, false
		case b[i] == '"':
			s = b[start:i]
			if escaped {
				out = append(out, s...)
				*sc.tmp, s = out, out
			}
			sc.i++
			return s, escaped, true
		}
		out = append(out, b[start:i]...)
		e, ok := sc.escape()
		if !ok {
			return nil, false, false
		}
		out = append(out, e)
		escaped = true
		start = sc.i
	}
}

func (sc *envelopeScanner) str(dst *string) bool {
	s, _, ok := sc.text()
	*dst = string(s)
	return ok
}

// substr scans a string of the body part src copies from offset base on,
// and returns it as a substring of src unless it has escapes.
func (sc *envelopeScanner) substr(src string, base int) (string, bool) {
	s, escaped, ok := sc.text()
	if escaped || !ok {
		return string(s), ok
	}
	return sc.within(src, base, s), true
}

// name returns the object key raw, as key returned it, as a string: a
// substring of src, which copies the body from offset base on, unless it
// has escapes.
func (sc *envelopeScanner) name(src string, base int, raw []byte, escaped bool) string {
	if !escaped {
		return sc.within(src, base, raw)
	}
	at := cap(sc.b) - cap(raw)
	quoted := envelopeScanner{b: sc.b[:at+len(raw)+1], i: at - 1, tmp: sc.tmp}
	s, _, _ := quoted.text()
	return string(s)
}

// within returns s, a slice of the body inside the part src copies from
// offset base on, as the matching substring of src.
func (sc *envelopeScanner) within(src string, base int, s []byte) string {
	at := cap(sc.b) - cap(s) - base
	return src[at : at+len(s)]
}

func (sc *envelopeScanner) null() bool {
	if bytes.HasPrefix(sc.b[sc.i:], []byte("null")) {
		sc.i += 4
		return true
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
	limit := uint64(1) << (bits - 1) // magnitude of the most negative value
	if !neg {
		limit--
	}
	u, ok := sc.digits(limit)
	if neg {
		return -int64(u), ok
	}
	return int64(u), ok
}

// digits decodes the digits of a JSON integer literal, at most limit.
func (sc *envelopeScanner) digits(limit uint64) (uint64, bool) {
	if sc.i >= len(sc.b) || sc.b[sc.i] < '0' || sc.b[sc.i] > '9' {
		return 0, false
	}
	if sc.b[sc.i] == '0' {
		sc.i++
		return 0, true
	}
	b, i := sc.b, sc.i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	sc.i = i
	return u, true
}

// float decodes a JSON number with strconv.ParseFloat, as the reference
// does; one out of float64's range is the reference's to refuse.
func (sc *envelopeScanner) float() (float64, bool) {
	start := sc.i
	run := func() bool { // one or more digits
		from := sc.i
		for sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9' {
			sc.i++
		}
		return sc.i > from
	}
	sc.eat('-')
	if !sc.eat('0') && !run() {
		return 0, false
	}
	if sc.eat('.') && !run() {
		return 0, false
	}
	if sc.eat('e') || sc.eat('E') {
		if !sc.eat('+') {
			sc.eat('-')
		}
		if !run() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(sc.b[start:sc.i]), 64)
	return f, err == nil
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

// appendEmbedRequest appends req as json.Marshal writes it — compact,
// fields in declaration order, omitempty honoured, allow's keys sorted in
// *keys — without the reflection. A NaN or infinite float fails with
// json.Marshal's own error, as the reference does.
func appendEmbedRequest(b []byte, req *EmbedRequest, keys *[]string) ([]byte, error) {
	ok := req.Objective == nil || finite(req.Objective.Weight)
	for _, m := range req.Metrics {
		ok = ok && finite(m.MissingEdge)
	}
	if !ok {
		_, err := json.Marshal(req)
		return b, err
	}
	b = append(b, `{"query":`...)
	b = appendJSONString(b, req.QueryGraphML)
	b = appendStringField(b, "edgeConstraint", req.EdgeConstraint)
	b = appendStringField(b, "nodeConstraint", req.NodeConstraint)
	b = appendStringField(b, "algorithm", req.Algorithm)
	b = appendIntField(b, "timeoutMs", int64(req.TimeoutMs))
	b = appendIntField(b, "maxResults", int64(req.MaxResults))
	b = appendIntField(b, "seed", req.Seed)
	b = appendTrueField(b, "excludeReserved", req.ExcludeReserved)
	b = appendTrueField(b, "dedupeSymmetric", req.DedupeSymmetric)
	b = appendStringField(b, "capacityAttr", req.CapacityAttr)
	b = appendStringField(b, "demandAttr", req.DemandAttr)
	b = appendIntField(b, "maxHops", int64(req.MaxHops))
	b = appendStringField(b, "delayAttr", req.DelayAttr)
	b = appendStringField(b, "windowLo", req.WindowLo)
	b = appendStringField(b, "windowHi", req.WindowHi)
	if len(req.Metrics) > 0 {
		b = append(b, `,"metrics":[`...)
		for i, m := range req.Metrics {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"attr":`...)
			b = appendJSONString(b, m.Attr)
			b = append(b, `,"rule":`...)
			b = appendJSONString(b, m.Rule)
			b = appendStringField(b, "loAttr", m.LoAttr)
			b = appendStringField(b, "hiAttr", m.HiAttr)
			b = appendFloatField(b, "missingEdge", m.MissingEdge)
			b = appendTrueField(b, "missingFails", m.MissingFails)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if o := req.Objective; o != nil {
		b = append(b, `,"objective":{"kind":`...)
		b = appendJSONString(b, o.Kind)
		b = appendStringField(b, "attr", o.Attr)
		b = appendFloatField(b, "weight", o.Weight)
		b = append(b, '}')
	}
	if len(req.Allow) > 0 {
		ks := (*keys)[:0]
		for k := range req.Allow {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		b = append(b, `,"allow":{`...)
		for i, k := range ks {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, k)
			b = append(b, ':')
			hosts := req.Allow[k]
			if hosts == nil {
				b = append(b, "null"...)
				continue
			}
			b = append(b, '[')
			for j, h := range hosts {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, h)
			}
			b = append(b, ']')
		}
		b = append(b, '}')
		*keys = ks
	}
	return append(b, '}'), nil
}

// appendKey appends the separator and key of an object member that is
// not the object's first.
func appendKey(b []byte, key string) []byte {
	b = append(b, `,"`...)
	b = append(b, key...)
	return append(b, `":`...)
}

// appendStringField, appendIntField, appendTrueField and appendFloatField
// append an omitempty member, if its value is not the zero value.
func appendStringField(b []byte, key, v string) []byte {
	if v == "" {
		return b
	}
	return appendJSONString(appendKey(b, key), v)
}

func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(appendKey(b, key), v, 10)
}

func appendTrueField(b []byte, key string, v bool) []byte {
	if !v {
		return b
	}
	return append(appendKey(b, key), "true"...)
}

func appendFloatField(b []byte, key string, v float64) []byte {
	if v == 0 {
		return b
	}
	return appendJSONFloat(appendKey(b, key), v)
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

// finite reports whether encoding/json can encode f.
func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// appendStats appends the stats object of the reply: the counters under
// their wire names and timeToFirstMs, in encoding/json's sorted key order.
func appendStats(b []byte, st *core.Stats) []byte {
	b = append(b, '{')
	ttf := false // timeToFirstMs written
	for i, c := range st.Counters() {
		if !ttf && c.Name > "timeToFirstMs" {
			b = append(b, ",\n    \"timeToFirstMs\": "...)
			b = appendJSONFloat(b, float64(st.TimeToFirst)/float64(time.Millisecond))
			ttf = true
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    \""...)
		b = append(b, c.Name...)
		b = append(b, "\": "...)
		b = strconv.AppendInt(b, c.Value, 10)
	}
	return append(b, "\n  }"...)
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
