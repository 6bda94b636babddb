package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/graphml"
	"netembed/internal/lifecycle"
	"netembed/internal/service"
	"netembed/internal/topo"
	"netembed/internal/trace"
)

// Constraint sources of the end-to-end ledger's request mixes.
const (
	seedWindowConstraint  = "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"
	seedReadConstraint    = "rNode.cpu >= vNode.cpu && rNode.osType == vNode.osType"
	seedManagedConstraint = "rNode.mem >= vNode.mem"
	seedRingConstraint    = "!has(vNode.seed) || has(rNode.seed)"
)

// seedQueryML is a small planted-style query with delay windows and
// string attributes, encoded as every client sends it.
func seedQueryML(tb testing.TB) string {
	tb.Helper()
	q := graph.NewUndirected()
	a := q.AddNode("a", graph.Attrs{}.SetNum("cpu", 2).SetStr("osType", "linux"))
	b := q.AddNode("b", graph.Attrs{}.SetNum("mem", 4).SetBool("seed", true))
	c := q.AddNode("c", nil)
	q.MustAddEdge(a, b, graph.Attrs{}.SetNum("minDelay", 10).SetNum("maxDelay", 20.5))
	q.MustAddEdge(b, c, graph.Attrs{}.SetNum("minDelay", 1e-7).SetNum("maxDelay", 3))
	doc, err := graphml.EncodeString(q)
	if err != nil {
		tb.Fatal(err)
	}
	return doc
}

// embedBodySeeds are the bodies the envelope equivalence test checks and
// the fuzz target starts from: every body shape the ledger and the
// coordinator send, then the edge cases the reference must own.
func embedBodySeeds(tb testing.TB) [][]byte {
	tb.Helper()
	query := seedQueryML(tb)
	var bodies [][]byte
	for _, wire := range []EmbedRequest{
		{EdgeConstraint: seedWindowConstraint, Algorithm: "ecf", MaxResults: 1},
		{EdgeConstraint: seedWindowConstraint, Algorithm: "rwb", MaxResults: 1, Seed: 7},
		{EdgeConstraint: seedWindowConstraint, Algorithm: "ecf", Objective: &ObjectiveJSON{Kind: "load-balance"}},
		{EdgeConstraint: seedWindowConstraint, NodeConstraint: seedRingConstraint, Algorithm: "ecf"},
		{EdgeConstraint: seedWindowConstraint, NodeConstraint: seedRingConstraint, Algorithm: "parallel-ecf"},
		{NodeConstraint: seedReadConstraint, Algorithm: "ecf", MaxResults: 1},
		{NodeConstraint: seedManagedConstraint, Algorithm: "ecf"},
		{Algorithm: "path", MaxHops: 3, DelayAttr: "avgDelay", WindowLo: "minDelay", WindowHi: "maxDelay",
			Metrics: []MetricSpecJSON{{Attr: "bandwidth", Rule: "bottleneck", LoAttr: "minBw", MissingEdge: 1e9}}},
		{Algorithm: "consolidate", CapacityAttr: "slots", DemandAttr: "need", TimeoutMs: 250, Seed: -3,
			ExcludeReserved: true, DedupeSymmetric: true, MaxHops: 2},
	} {
		wire.QueryGraphML = query
		body, err := json.Marshal(&wire)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	// The coordinator's fragments to a region shard.
	bodies = append(bodies, fragmentBodies(tb)...)
	for _, s := range []string{
		``, `   `, `null`, `[1]`, `"query"`, `{`, `{}`, ` {} `, `{,}`, `{"query":"x",}`,
		"\t{ \"query\" :\r\n\"<g/>\" , \"maxResults\" : 2 }\n",
		`{"query":"<a/>","query":"<b/>"}`,
		`{"maxResults":1,"maxResults":2,"seed":5,"seed":-5}`,
		`{"Query":"<a/>"}`,
		`{"query":"<a/>","QUERY":"<b/>"}`,
		`{"query":null}`,
		`{"query":"<a/>","maxResults":null}`,
		`{"query":"\ud800"}`,
		`{"query":"\ud83d\ude00"}`,
		`{"query":"héllo"}`,
		`{"query":"h\u00e9llo"}`,
		"{\"query\":\"bad \xff byte\"}",
		"{\"query\":\"raw \x01 control\"}",
		`{"query":"a\"b\\c\/d\b\f\n\r\t\u0041\u003c\u003E\u0026\u0000"}`,
		`{"query":"\u00"}`,
		`{"query":"\x"}`,
		`{"query":"unterminated`,
		`{"maxResults":9223372036854775807}`,
		`{"maxResults":9223372036854775808}`,
		`{"maxResults":-9223372036854775808}`,
		`{"maxResults":-9223372036854775809}`,
		`{"seed":99999999999999999999999}`,
		`{"maxResults":-0}`,
		`{"maxResults":01}`,
		`{"maxResults":1.0}`,
		`{"maxResults":1e2}`,
		`{"maxResults":-}`,
		`{"maxResults":"5"}`,
		`{"timeoutMs":true}`,
		`{"excludeReserved":1}`,
		`{"excludeReserved":tru}`,
		`{"dedupeSymmetric":true,"excludeReserved":false}`,
		`{"query":true}`,
		`{"query":"<a/>"} trailing`,
		`{"query":"<a/>"}{"query":"<b/>"}`,
		`{"query":"<a/>"`,
		`{"bogus":1,"query":"<a/>"}`,
		`{"query":"<a/>","allow":{"a":["h"]}}`,
		`{"allow":{"a":["h1","h2"],"b":[]},"query":"<a/>"}`,
		`{"allow":{}}`,
		` {"allow" : { "a" : [ "h1" , "h\u0032" ] , "b\u0041" : [ ] } } `,
		`{"allow":{"a":["h1"],"a":["h2"]}}`,
		`{"allow":{"a":["h1"],"\u0061":["h2"]}}`,
		`{"allow":{"a":["h1"]},"allow":{"b":["h2"]}}`,
		`{"allow":{"a":["h1"]},"allow":null}`,
		`{"allow":null}`,
		`{"allow":{"a":null}}`,
		`{"allow":{"a":["h1",null]}}`,
		`{"allow":{"a":["h1",2]}}`,
		`{"allow":{"a":[true]}}`,
		`{"allow":{"a":"h1"}}`,
		`{"allow":{"a":{"h1":1}}}`,
		`{"allow":["a"]}`,
		`{"allow":{"a":["h\u00e9"]}}`,
		`{"allow":{"\u00e9":["h"]}}`,
		`{"allow":{"a":["h\ud83d\ude00"]}}`,
		`{"allow":{"a":["hé"]}}`,
		`{"allow":{"a":["h1",]}}`,
		`{"allow":{"a":["h1"],}}`,
		`{"allow":{"a":["h1"]`,
		`{"allow":{"a":["h1`,
		`{"allow":{"a":["h\"1\\<>&\/"]}}`,
		`{"Allow":{"a":["h1"]}}`,
		`{"query":"<a/>","objective":{"kind":"energy"},"metrics":[]}`,
		`{"qu\u0065ry":"<a/>"}`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// checkEmbedBody requires the scanner-with-fallback to decode body into
// the request json.Decoder decodes, or to fail with the same message.
func checkEmbedBody(t *testing.T, body []byte) {
	t.Helper()
	var got EmbedRequest
	var tmp []byte
	gotErr := decodeEmbedBody(body, &got, &tmp)
	var want EmbedRequest
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	switch {
	case wantErr != nil:
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: error %v, reference %v", body, gotErr, wantErr)
		}
	case gotErr != nil:
		t.Fatalf("body %q: error %v, reference decodes it", body, gotErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("body %q:\n got %#v\nwant %#v", body, got, want)
	}
}

func TestEmbedRequestMatchesReference(t *testing.T) {
	for _, body := range embedBodySeeds(t) {
		checkEmbedBody(t, body)
	}
}

// fragmentBodies are the bodies the coordinator writes for ecf and rwb
// fragments to a region shard: without allow, and with allow-sets of one
// name, of 39 names (a spanning query's frontier on the federated
// workload), of none, and of names the writer escapes.
func fragmentBodies(tb testing.TB) [][]byte {
	tb.Helper()
	q, err := graphml.DecodeString(seedQueryML(tb))
	if err != nil {
		tb.Fatal(err)
	}
	var hosts []string
	for h := 0; h < 39; h++ {
		hosts = append(hosts, fmt.Sprintf("planetlab%d.example.org", h))
	}
	var bodies [][]byte
	for _, algo := range []service.Algorithm{service.AlgoECF, service.AlgoRWB} {
		for _, allow := range []map[string][]string{
			nil,
			{"a": {"h1"}},
			{"a": hosts, "b": hosts[7:]},
			{"a": {}, "c": hosts[:2]},
			{"b": {"h<1>", "h&2", `h"3\`, "h\t4"}},
		} {
			wire, err := encodeEmbedRequest(service.Request{
				Query: q, EdgeConstraint: seedWindowConstraint, Algorithm: algo,
				MaxResults: 8, Seed: 11, Timeout: 1937 * time.Millisecond, Allow: allow,
			})
			if err != nil {
				tb.Fatal(err)
			}
			var keys []string
			body, err := appendEmbedRequest(nil, wire, &keys)
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// TestEnvelopeScannerTakesMarshalledBodies pins the fast path: every
// ASCII body json.Marshal writes for the scalar fields and allow is the
// scanner's, escapes included, and so is every body the coordinator writes
// for an ecf or rwb fragment, so no such body is decoded twice.
func TestEnvelopeScannerTakesMarshalledBodies(t *testing.T) {
	for _, body := range fragmentBodies(t) {
		var req, want EmbedRequest
		var tmp []byte
		sc := envelopeScanner{b: body, tmp: &tmp}
		if !sc.request(&req) {
			t.Fatalf("scanner refused the fragment %q", body)
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("scanner decoded the fragment %q as %#v", body, req)
		}
	}
	taken := 0
	for _, body := range embedBodySeeds(t) {
		var wire EmbedRequest
		if json.Unmarshal(body, &wire) != nil || wire.Objective != nil || wire.Metrics != nil ||
			slices.ContainsFunc(slices.Collect(maps.Values(wire.Allow)), func(l []string) bool { return l == nil }) {
			continue // a null allow list is the reference's
		}
		canonical, err := json.Marshal(&wire)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsFunc(canonical, func(r rune) bool { return r >= utf8.RuneSelf }) {
			continue // non-ASCII text is the reference's
		}
		wire = EmbedRequest{} // an empty allow is not marshalled
		if err := json.Unmarshal(canonical, &wire); err != nil {
			t.Fatal(err)
		}
		var req EmbedRequest
		var tmp []byte
		sc := envelopeScanner{b: canonical, tmp: &tmp}
		if !sc.request(&req) {
			t.Errorf("scanner refused %q", canonical)
			continue
		}
		if !reflect.DeepEqual(req, wire) {
			t.Errorf("scanner decoded %q as %#v", canonical, req)
		}
		taken++
	}
	if taken < 10 {
		t.Fatalf("only %d marshalled bodies checked", taken)
	}
}

// FuzzEmbedRequestMatchesReference: for any body, the envelope scanner
// plus its fallback decodes what json.Decoder decodes, or fails with the
// same error text.
func FuzzEmbedRequestMatchesReference(f *testing.F) {
	for _, body := range embedBodySeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkEmbedBody(t, body)
	})
}

// referenceReply is what the embed handlers wrote before the direct
// writer: the reflected EmbedResponse through writeJSON.
func referenceReply(resp *service.Response, cached bool) *httptest.ResponseRecorder {
	out := embedResponseJSON(resp)
	out.Cached = cached
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, out)
	return rec
}

// replyText draws strings over the characters the writer must escape
// exactly as encoding/json does: HTML-significant bytes, quotes and
// backslashes, every control byte, DEL, U+2028 / U+2029, valid multi-byte
// runes and invalid or truncated UTF-8.
func replyText(rng *rand.Rand) string {
	pieces := []string{
		"h", "host-17", " ", "<", ">", "&", `"`, `\`, "/", "\x7f", "\u2028", "\u2029",
		"é", "日本", "\U0001F600", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\ufffd",
	}
	var sb strings.Builder
	for n := rng.Intn(6); n > 0; n-- {
		if rng.Intn(4) == 0 {
			sb.WriteByte(byte(rng.Intn(0x20)))
			continue
		}
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// replyFloats are the values whose formatting encoding/json special-cases.
var replyFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 1.0 / 3, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e-9, 1.5e-300,
	1e20, 1e21, -1e21, 1.2345e22, math.MaxFloat64, math.SmallestNonzeroFloat64,
	2.2250738585072014e-308, -4.9e-320, 123456789.125,
}

// setStats gives every integer counter of core.Stats a distinct value by
// reflection, so a counter added later is covered without editing here.
func setStats(st *core.Stats, base int64) {
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(base + int64(i)*1_000_003)
		}
	}
}

func generatedResponse(rng *rand.Rand) *service.Response {
	resp := &service.Response{
		Status:       core.Status(rng.Intn(4)),
		ModelVersion: rng.Uint64() >> uint(rng.Intn(64)),
		Elapsed:      time.Duration(rng.Int63n(int64(10 * time.Second))),
	}
	setStats(&resp.Stats, rng.Int63n(1<<40)-1<<39)
	switch rng.Intn(4) {
	case 0: // nil: no answer
	case 1:
		resp.Named = []service.NamedMapping{}
	default:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			var m service.NamedMapping
			switch rng.Intn(5) {
			case 0: // nil mapping
			case 1:
				m = service.NamedMapping{}
			default:
				m = service.NamedMapping{}
				for k := 1 + rng.Intn(4); k > 0; k-- {
					m[replyText(rng)] = replyText(rng)
				}
			}
			resp.Named = append(resp.Named, m)
		}
	}
	if rng.Intn(2) == 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			row := []service.PathWitness{}
			for k := rng.Intn(3); k > 0; k-- {
				w := service.PathWitness{Source: replyText(rng), Target: replyText(rng), Cost: replyFloats[rng.Intn(len(replyFloats))]}
				switch rng.Intn(3) {
				case 0: // nil path
				case 1:
					w.Path = []string{}
				default:
					for h := 1 + rng.Intn(3); h > 0; h-- {
						w.Path = append(w.Path, replyText(rng))
					}
				}
				row = append(row, w)
			}
			resp.Paths = append(resp.Paths, row)
		}
	}
	if rng.Intn(2) == 0 {
		cost := replyFloats[rng.Intn(len(replyFloats))]
		resp.ObjectiveCost = &cost
	}
	switch rng.Intn(3) {
	case 0:
		resp.Warnings = []string{}
	case 1:
		for n := 1 + rng.Intn(2); n > 0; n-- {
			resp.Warnings = append(resp.Warnings, replyText(rng))
		}
	}
	return resp
}

// TestEmbedResponseMatchesReference requires the direct writer to produce
// the reference reply byte for byte — status, headers and body — on
// generated responses, and the reference's 500 when a float is NaN or
// infinite.
func TestEmbedResponseMatchesReference(t *testing.T) {
	check := func(name string, resp *service.Response, cached bool) {
		t.Helper()
		want := referenceReply(resp, cached)
		got := httptest.NewRecorder()
		writeEmbedResponse(got, resp, cached)
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("%s: status %d %v, reference %d %v", name, got.Code, got.Header(), want.Code, want.Header())
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("%s: reply differs from the reference\n got %q\nwant %q", name, got.Body.Bytes(), want.Body.Bytes())
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		check(fmt.Sprintf("generated %d", i), generatedResponse(rng), rng.Intn(2) == 0)
	}

	one := 1.5
	plain := &service.Response{Named: []service.NamedMapping{{"a": "h<1>", "b": "h&2"}}, ObjectiveCost: &one}
	setStats(&plain.Stats, 1)
	check("plain", plain, false)
	check("plain cached", plain, true)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := bad
		check(fmt.Sprintf("objective %v", bad), &service.Response{ObjectiveCost: &v}, false)
		check(fmt.Sprintf("path cost %v", bad), &service.Response{
			Named: []service.NamedMapping{{"a": "h"}},
			Paths: [][]service.PathWitness{{{Source: "a", Target: "b", Path: []string{"h"}, Cost: bad}}},
		}, true)
	}
	nan := math.NaN()
	rec := httptest.NewRecorder()
	writeEmbedResponse(rec, &service.Response{ObjectiveCost: &nan}, false)
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != `{"error":"response encoding failed"}`+"\n" {
		t.Fatalf("NaN reply %d %q", rec.Code, rec.Body.String())
	}
}

// generatedRequest draws a wire request over every field the coordinator
// may send, with the text and floats whose encoding json.Marshal
// special-cases, zero values (omitted) included.
func generatedRequest(rng *rand.Rand) *EmbedRequest {
	text := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return replyText(rng)
	}
	ints := []int{0, 1, -1, 250, math.MaxInt, math.MinInt}
	num := func() int { return ints[rng.Intn(len(ints))] }
	float := func() float64 { return replyFloats[rng.Intn(len(replyFloats))] }
	req := &EmbedRequest{
		QueryGraphML: replyText(rng), EdgeConstraint: text(), NodeConstraint: text(), Algorithm: text(),
		TimeoutMs: num(), MaxResults: num(), Seed: int64(num()) * int64(rng.Intn(3)),
		ExcludeReserved: rng.Intn(2) == 0, DedupeSymmetric: rng.Intn(2) == 0,
		CapacityAttr: text(), DemandAttr: text(), MaxHops: num(), DelayAttr: text(), WindowLo: text(), WindowHi: text(),
	}
	switch rng.Intn(3) {
	case 0:
		req.Metrics = []MetricSpecJSON{}
	case 1:
		for n := 1 + rng.Intn(2); n > 0; n-- {
			req.Metrics = append(req.Metrics, MetricSpecJSON{Attr: text(), Rule: text(), LoAttr: text(), HiAttr: text(),
				MissingEdge: float(), MissingFails: rng.Intn(2) == 0})
		}
	}
	if rng.Intn(2) == 0 {
		req.Objective = &ObjectiveJSON{Kind: text(), Attr: text(), Weight: float()}
	}
	switch rng.Intn(4) {
	case 0: // no allow
	case 1:
		req.Allow = map[string][]string{}
	default:
		req.Allow = map[string][]string{}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			var hosts []string
			switch rng.Intn(4) {
			case 0: // null list
			case 1:
				hosts = []string{}
			default:
				for h := 1 + rng.Intn(5); h > 0; h-- {
					hosts = append(hosts, text())
				}
			}
			req.Allow[text()] = hosts
		}
	}
	return req
}

// TestEmbedRequestEncodesAsMarshal: the coordinator's request writer
// produces json.Marshal's bytes on generated requests, and its error when
// a float is NaN or infinite.
func TestEmbedRequestEncodesAsMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var keys []string
	for i := 0; i < 3000; i++ {
		req := generatedRequest(rng)
		want, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendEmbedRequest([]byte("prefix"), req, &keys)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("request %d: error %v\n got %q\nwant %q", i, err, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, req := range []*EmbedRequest{
			{Objective: &ObjectiveJSON{Kind: "energy", Weight: bad}},
			{Metrics: []MetricSpecJSON{{Attr: "bw", Rule: "additive"}, {Attr: "d", Rule: "additive", MissingEdge: bad}}},
		} {
			_, want := json.Marshal(req)
			if _, err := appendEmbedRequest(nil, req, &keys); err == nil || want == nil || err.Error() != want.Error() {
				t.Fatalf("non-finite %v: error %v, reference %v", bad, err, want)
			}
		}
	}
}

// referenceResponse decodes a shard reply the way the coordinator did
// before the reply scanner: json.Unmarshal, then responseFromWire.
func referenceResponse(body []byte) (*service.Response, error) {
	var out EmbedResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("bad response JSON: %v", err)
	}
	return responseFromWire(&out)
}

// checkEmbedReply requires decodeEmbedResponse to decode body into the
// response the reference makes of it, or to fail with the same message.
func checkEmbedReply(t *testing.T, body []byte) {
	t.Helper()
	var tmp []byte
	got, gotErr := decodeEmbedResponse(body, &tmp)
	want, wantErr := referenceResponse(body)
	switch {
	case wantErr != nil:
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("reply %q: error %v, reference %v", body, gotErr, wantErr)
		}
	case gotErr != nil:
		t.Fatalf("reply %q: error %v, reference decodes it", body, gotErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("reply %q:\n got %#v\nwant %#v", body, got, want)
	}
}

// embedReplySeeds are the replies the reply equivalence test checks and
// its fuzz target starts from: the writer's replies to the responses
// TestEmbedResponseMatchesReference generates, then the edge cases the
// reference must own.
func embedReplySeeds(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var keys []string
	var bodies [][]byte
	for i := 0; i < 400; i++ {
		resp := generatedResponse(rng)
		if !finiteFloats(resp) {
			continue
		}
		bodies = append(bodies, appendEmbedResponse(nil, resp, rng.Intn(2) == 0, &keys))
	}
	_, resp := shardWireFragment()
	bodies = append(bodies, appendEmbedResponse(nil, resp, false, &keys))
	for _, s := range []string{
		``, `null`, `{}`, `[]`, ` {"status":"complete"} `, `{"status":"complete"} x`, `{"status":"complete"}{}`,
		`{"status":"complete"`, `{"status":"bogus"}`, `{"status":"Complete"}`, `{"Status":"complete"}`,
		`{"status":"compl\u0065te"}`, `{"status":null}`, `{"status":"complete","status":"partial"}`,
		`{"status":"partial","status":"bogus"}`, `{"status":"inconclusive","bogus":1}`,
		`{"status":"complete","mappings":[{"a":"h"}],"mappings":[{"b":"g"}]}`,
		`{"status":"complete","mappings":[],"mappings":[{"b":"g"}]}`,
		`{"status":"complete","mappings":[null,{},{"a":"h","b":"g"}]}`,
		`{"status":"complete","mappings":[{"a":"h","a":"g"}]}`,
		`{"status":"complete","mappings":[{"\u0061":"h","a":"g"}]}`,
		`{"status":"complete","mappings":[{"a\n\u003c":"h\u0026\t"}]}`,
		`{"status":"complete","mappings":[{"a":null}]}`,
		`{"status":"complete","mappings":[{"a":1}]}`,
		`{"status":"complete","mappings":[{"a":"h\u00e9"}]}`,
		`{"status":"complete","mappings":[{"é":"h"}]}`,
		`{"status":"complete","mappings":null}`,
		`{"status":"complete","mappings":[]}`,
		`{"status":"complete","mappings":[1]}`,
		`{"status":"complete","mappings":{}}`,
		`{"status":"complete","modelVersion":18446744073709551615}`,
		`{"status":"complete","modelVersion":18446744073709551616}`,
		`{"status":"complete","modelVersion":-0}`,
		`{"status":"complete","modelVersion":-1}`,
		`{"status":"complete","modelVersion":1.0}`,
		`{"status":"complete","modelVersion":1e3}`,
		`{"status":"complete","modelVersion":01}`,
		`{"status":"complete","modelVersion":"1"}`,
		`{"status":"complete","elapsedMs":1e400}`,
		`{"status":"complete","elapsedMs":1e-400}`,
		`{"status":"complete","elapsedMs":-0}`,
		`{"status":"complete","elapsedMs":1E+2}`,
		`{"status":"complete","elapsedMs":2.5e-3}`,
		`{"status":"complete","elapsedMs":.5}`,
		`{"status":"complete","elapsedMs":1.}`,
		`{"status":"complete","elapsedMs":-}`,
		`{"status":"complete","elapsedMs":+1}`,
		`{"status":"complete","elapsedMs":00}`,
		`{"status":"complete","elapsedMs":null}`,
		`{"status":"complete","elapsedMs":1,"elapsedMs":2}`,
		`{"status":"complete","stats":{"nodesVisited":9007199254740992,"backjumps":-9007199254740992}}`,
		`{"status":"complete","stats":{"nodesVisited":9007199254740993}}`,
		`{"status":"complete","stats":{"nodesVisited":-9007199254740993}}`,
		`{"status":"complete","stats":{"nodesVisited":99999999999999999999}}`,
		`{"status":"complete","stats":{"nodesVisited":1.5}}`,
		`{"status":"complete","stats":{"nodesVisited":1e3}}`,
		`{"status":"complete","stats":{"nodesVisited":"x"}}`,
		`{"status":"complete","stats":{"nodesVisited":null}}`,
		`{"status":"complete","stats":{"nodesVisited":1,"nodesVisited":2}}`,
		`{"status":"complete","stats":{"n\u006fdesVisited":5}}`,
		`{"status":"complete","stats":{"bogus":3,"timeToFirstMs":1.5}}`,
		`{"status":"complete","stats":{"timeToFirstMs":1.5,"timeToFirstMs":"x"}}`,
		`{"status":"complete","stats":{"timeToFirstMs":1e300}}`,
		`{"status":"complete","stats":{"nodesVisited":3},"stats":{"backjumps":4}}`,
		`{"status":"complete","stats":null}`,
		`{"status":"complete","stats":[]}`,
		`{"status":"complete","cached":true}`,
		`{"status":"complete","cached":false}`,
		`{"status":"complete","cached":1}`,
		`{"status":"complete","cached":null}`,
		`{"status":"complete","objectiveCost":1.5}`,
		`{"status":"complete","objectiveCost":-0}`,
		`{"status":"complete","objectiveCost":null}`,
		`{"status":"complete","objectiveCost":1,"objectiveCost":2}`,
		`{"status":"complete","warnings":[]}`,
		`{"status":"complete","warnings":null}`,
		`{"status":"complete","warnings":["a","b\u003c"]}`,
		`{"status":"complete","warnings":["a"],"warnings":["b","c"]}`,
		`{"status":"complete","warnings":["a",1]}`,
		`{"status":"complete","warnings":["é"]}`,
		`{"status":"complete","paths":[[{"source":"a","target":"b","path":["h"],"cost":1}]]}`,
		`{"status":"complete","paths":[null,[]]}`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

// TestEmbedReplyMatchesReference: on every seed reply the reply scanner
// plus its fallback decodes what json.Unmarshal and responseFromWire
// decode, or fails with the same message.
func TestEmbedReplyMatchesReference(t *testing.T) {
	for _, body := range embedReplySeeds(t) {
		checkEmbedReply(t, body)
	}
}

// TestReplyScannerTakesWrittenReplies pins the reply fast path: every
// reply appendEmbedResponse writes for a response without paths, whose
// text is ASCII and whose status a shard sends, is the scanner's.
func TestReplyScannerTakesWrittenReplies(t *testing.T) {
	ascii := func(ss ...string) bool {
		for _, s := range ss {
			if strings.ContainsFunc(s, func(r rune) bool { return r >= utf8.RuneSelf }) {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(2))
	var keys []string
	taken := 0
	for i := 0; i < 4000; i++ {
		resp := generatedResponse(rng)
		resp.Paths = nil
		ok := resp.Status <= core.StatusInconclusive && ascii(resp.Warnings...)
		for _, m := range resp.Named {
			for k, v := range m {
				ok = ok && ascii(k, v)
			}
		}
		if !ok || !finiteFloats(resp) {
			continue
		}
		body := appendEmbedResponse(nil, resp, rng.Intn(2) == 0, &keys)
		var tmp []byte
		got := new(service.Response)
		sc := envelopeScanner{b: body, tmp: &tmp}
		if !sc.reply(got) {
			t.Fatalf("scanner refused %q", body)
		}
		want, err := referenceResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanner decoded %q as\n%#v\nwant %#v", body, got, want)
		}
		taken++
	}
	t.Logf("%d written replies taken", taken)
	if taken < 100 {
		t.Fatalf("only %d written replies checked", taken)
	}
}

// FuzzEmbedResponseMatchesReference: for any shard reply, the reply
// scanner plus its fallback decodes what json.Unmarshal and
// responseFromWire decode, or fails with the same error text.
func FuzzEmbedResponseMatchesReference(f *testing.F) {
	for _, body := range embedReplySeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkEmbedReply(t, body)
	})
}

// endlessReader streams spaces forever, the body of a client that never
// announces its length.
type endlessReader struct{}

func (endlessReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizedEmbedBody: a body over its bound answers 413 on every
// endpoint that reads one, whether its length is announced or streamed,
// and the refusal does not buffer an announced embed body at all.
func TestOversizedEmbedBody(t *testing.T) {
	if testing.Short() {
		t.Skip("streams bodies over the limit")
	}
	api, _ := newAllocServer(t, -1)
	api.AttachLifecycle(lifecycle.NewManager(api.svc, lifecycle.Config{}))
	coord := NewClusterServer(nil)
	post := func(h http.Handler, method, path string, limit int64, announced bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, io.LimitReader(endlessReader{}, limit+1))
		if announced {
			req.ContentLength = limit + 1
		} else {
			req.ContentLength = -1
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, c := range []struct {
		h            http.Handler
		method, path string
		limit        int64
	}{
		{api, "POST", "/embed", maxBodyBytes},
		{api, "POST", "/jobs", maxBodyBytes},
		{api, "POST", "/internal/shard/embed", maxBodyBytes},
		{api, "PUT", "/model", maxModelBodyBytes},
		{api, "POST", "/reserve", maxBodyBytes},
		{api, "POST", "/embeddings", maxBodyBytes},
		{api, "POST", "/deltas", maxBodyBytes},
		{api, "POST", "/internal/shard/delta", maxBodyBytes},
		{api, "POST", "/embed/batch", maxBodyBytes},
		{api, "POST", "/negotiate", maxBodyBytes},
		{api, "POST", "/schedule", maxBodyBytes},
		{coord, "POST", "/embed", maxBodyBytes},
		{coord, "POST", "/deltas", maxBodyBytes},
	} {
		for _, announced := range []bool{true, false} {
			rec := post(c.h, c.method, c.path, c.limit, announced)
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
				t.Fatalf("%s %s (announced %v): %d %s", c.method, c.path, announced, rec.Code, rec.Body.String())
			}
		}
	}
	// The refusal of an announced body reads nothing. A streamed body is
	// buffered up to the limit by doubling, into a buffer too large to
	// return to the pool.
	for _, c := range []struct {
		announced bool
		runs      int
		budget    int
	}{{true, 20, 40}, {false, 2, 70}} {
		avg := testing.AllocsPerRun(c.runs, func() { post(api, "POST", "/embed", maxBodyBytes, c.announced) })
		t.Logf("oversized /embed (announced %v): %.1f allocs/op (budget %.0f)", c.announced, avg, budget(c.budget))
		if avg > budget(c.budget) {
			t.Errorf("refusing an oversized body (announced %v) allocates %.1f/op, budget %.0f", c.announced, avg, budget(c.budget))
		}
	}
}

// BenchmarkEmbedEnvelope decodes the /embed body of an 8-node/12-edge
// query planted in a 120-site host (the body BenchmarkServePath posts)
// through the envelope scanner and through the json.Decoder reference.
func BenchmarkEmbedEnvelope(b *testing.B) {
	host := trace.SyntheticPlanetLab(trace.Config{Sites: 120}, rand.New(rand.NewSource(1)))
	q, _, err := topo.Subgraph(host, 8, 12, rand.New(rand.NewSource(15)))
	if err != nil {
		b.Fatal(err)
	}
	doc, err := graphml.EncodeString(q)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(&EmbedRequest{QueryGraphML: doc, EdgeConstraint: seedWindowConstraint, MaxResults: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("scanner", func(b *testing.B) {
		var tmp []byte
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req EmbedRequest
			if err := decodeEmbedBody(body, &req, &tmp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req EmbedRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
