package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	// The coordinator's fragment to a region shard, with and without the
	// allow map that pins a spanning query's nodes.
	q, err := graphml.DecodeString(query)
	if err != nil {
		tb.Fatal(err)
	}
	for _, allow := range []map[string][]string{nil, {"a": {"h1", "h2"}}} {
		wire, err := encodeEmbedRequest(service.Request{
			Query: q, EdgeConstraint: seedWindowConstraint, Algorithm: service.AlgoECF,
			MaxResults: 1, Timeout: 2 * time.Second, Allow: allow,
		})
		if err != nil {
			tb.Fatal(err)
		}
		body, err := json.Marshal(wire)
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, body)
	}
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

// TestEnvelopeScannerTakesMarshalledBodies pins the fast path: every
// ASCII body json.Marshal writes for the scalar fields is the scanner's,
// escapes included, so no such body is decoded twice.
func TestEnvelopeScannerTakesMarshalledBodies(t *testing.T) {
	taken := 0
	for _, body := range embedBodySeeds(t) {
		var wire EmbedRequest
		if json.Unmarshal(body, &wire) != nil || wire.Objective != nil || wire.Metrics != nil || wire.Allow != nil {
			continue
		}
		canonical, err := json.Marshal(&wire)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsFunc(canonical, func(r rune) bool { return r >= utf8.RuneSelf }) {
			continue // non-ASCII text is the reference's
		}
		var req EmbedRequest
		var tmp []byte
		sc := envelopeScanner{b: canonical, tmp: &tmp}
		if !sc.object(&req) {
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
