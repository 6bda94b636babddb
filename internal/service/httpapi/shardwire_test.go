package httpapi

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/graph"
	"netembed/internal/service"
	"netembed/internal/topo"
)

// shardWireFragment is one fragment round trip at the shape the ledger's
// federated workload sends: a 2-node fragment of a delay-window query
// whose two frontier nodes may each take 39 hosts, and the shard's
// 3-mapping answer with every counter set.
func shardWireFragment() (service.Request, *service.Response) {
	q := graph.NewUndirected()
	a := q.AddNode("q3", graph.Attrs{}.SetStr("region", "west"))
	b := q.AddNode("q5", graph.Attrs{}.SetStr("region", "west"))
	q.MustAddEdge(a, b, graph.Attrs{}.SetNum("minDelay", 41.5).SetNum("maxDelay", 57.25))
	allow := map[string][]string{}
	for _, name := range []string{"q3", "q5"} {
		for h := 0; h < 39; h++ {
			allow[name] = append(allow[name], fmt.Sprintf("planetlab%d.west.example.org", 7*h+len(name)))
		}
	}
	req := service.Request{
		Query: q, EdgeConstraint: seedWindowConstraint, Algorithm: service.AlgoECF,
		MaxResults: 8, Timeout: 1937 * time.Millisecond, Allow: allow,
	}
	resp := &service.Response{Status: core.StatusPartial, ModelVersion: 3, Elapsed: 412 * time.Microsecond}
	setStats(&resp.Stats, 17)
	for i := 0; i < 3; i++ {
		resp.Named = append(resp.Named, service.NamedMapping{"q3": allow["q3"][i], "q5": allow["q5"][i+1]})
	}
	return req, resp
}

// shardWireRoundTrip runs one fragment through the shard wire's codec:
// the coordinator encodes the request, the shard decodes it and writes its
// reply, and the coordinator decodes the reply.
func shardWireRoundTrip(tb testing.TB, req service.Request, resp *service.Response) *service.Response {
	wire, err := encodeEmbedRequest(req)
	if err != nil {
		tb.Fatal(err)
	}
	out := getCodecBuf()
	if out.b, err = appendEmbedRequest(out.b[:0], wire, &out.keys); err != nil {
		tb.Fatal(err)
	}
	in := getCodecBuf()
	in.b = append(in.b[:0], out.b...)
	putCodecBuf(out)
	var got EmbedRequest
	if err := decodeEmbedBody(in.b, &got, &in.tmp); err != nil {
		tb.Fatal(err)
	}
	in.b = appendEmbedResponse(in.b[:0], resp, false, &in.keys)
	back, err := decodeEmbedResponse(in.b, &in.tmp)
	if err != nil {
		tb.Fatal(err)
	}
	putCodecBuf(in)
	return back
}

// shardWireAllocBudget bounds the allocations of one fragment's round
// trip through the shard wire's codec at the federated workload's shape
// (shardWireFragment). Measured: 19, of which 2 are encodeEmbedRequest's;
// 33 while the GraphML encoder allocated per key and per value (16 in
// encodeEmbedRequest), and ≈265 through encoding/json (json.Marshal,
// json.Decoder and json.Unmarshal).
const shardWireAllocBudget = 25

// TestShardWireAllocBudget pins the allocations of one fragment round
// trip — coordinator encodes, shard decodes, shard writes its reply,
// coordinator decodes — and that the coordinator gets the shard's answer
// back.
func TestShardWireAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is slow under -short")
	}
	req, resp := shardWireFragment()
	back := shardWireRoundTrip(t, req, resp)
	want := *resp
	want.Elapsed = time.Duration(float64(resp.Elapsed) / float64(time.Millisecond) * float64(time.Millisecond))
	want.Stats.FilterBuild, want.Stats.Elapsed = 0, 0
	if !reflect.DeepEqual(back, &want) {
		t.Fatalf("round trip:\n got %#v\nwant %#v", back, &want)
	}
	avg := testing.AllocsPerRun(100, func() { shardWireRoundTrip(t, req, resp) })
	t.Logf("shard wire round trip: %.1f allocs/op (budget %.0f)", avg, budget(shardWireAllocBudget))
	if avg > budget(shardWireAllocBudget) {
		t.Errorf("a shard wire round trip allocates %.1f/op, budget %.0f — the shard codec regressed",
			avg, budget(shardWireAllocBudget))
	}
}

// BenchmarkShardWire is TestShardWireAllocBudget's round trip.
func BenchmarkShardWire(b *testing.B) {
	req, resp := shardWireFragment()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		shardWireRoundTrip(b, req, resp)
	}
}

// lateTransport answers every request at once with reply and keeps its
// body unread, as a transport still writing the body after client.Do has
// returned does.
type lateTransport struct {
	reply  []byte
	bodies []io.ReadCloser
}

func (lt *lateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	lt.bodies = append(lt.bodies, r.Body)
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
		Body: io.NopCloser(bytes.NewReader(lt.reply)), ContentLength: int64(len(lt.reply)),
	}, nil
}

// TestShardRequestBodyOutlivesDo: a fragment's pooled request body stays
// the coordinator's bytes until the transport closes it, however many
// exchanges run after Embed has returned, and is whole on every read.
func TestShardRequestBodyOutlivesDo(t *testing.T) {
	req, resp := shardWireFragment()
	lt := &lateTransport{reply: appendEmbedResponse(nil, resp, false, new([]string))}
	rs, err := NewRemoteShard("http://shard.invalid", RemoteShardConfig{Client: &http.Client{Transport: lt}})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := encodeEmbedRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := appendEmbedRequest(nil, wire, new([]string))
	if err != nil {
		t.Fatal(err)
	}
	other := req
	other.Query = topo.Line(3)
	other.Allow = map[string][]string{"n0": {"elsewhere"}}
	for i := 0; i < 20; i++ {
		lt.bodies = lt.bodies[:0]
		if _, err := rs.Embed(req); err != nil {
			t.Fatal(err)
		}
		late := lt.bodies[0]
		for k := 0; k < 3; k++ {
			if _, err := rs.Embed(other); err != nil {
				t.Fatal(err)
			}
			body := lt.bodies[len(lt.bodies)-1]
			if _, err := io.Copy(io.Discard, body); err != nil {
				t.Fatal(err)
			}
			body.Close()
		}
		got, err := io.ReadAll(late)
		if err != nil {
			t.Fatal(err)
		}
		late.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: the transport read a body recycled before it closed it:\n got %.120q\nwant %.120q", i, got, want)
		}
	}
}

// TestRemoteShardReplyBound: a peer reply one byte over maxShardReplyBytes
// fails with an error naming the bound — streamed or announced, a 200
// reply or an error body — instead of being cut and misread.
func TestRemoteShardReplyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("streams replies over the bound")
	}
	req, _ := shardWireFragment()
	bound := fmt.Sprintf("over the %d-byte bound", maxShardReplyBytes)
	for _, status := range []int{http.StatusOK, http.StatusInternalServerError} {
		for _, announced := range []bool{false, true} {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				if announced {
					w.Header().Set("Content-Length", strconv.Itoa(maxShardReplyBytes+1))
				}
				w.WriteHeader(status)
				_, _ = io.Copy(w, io.LimitReader(endlessReader{}, maxShardReplyBytes+1))
			}))
			rs, err := NewRemoteShard(srv.URL, RemoteShardConfig{Retries: -1})
			if err != nil {
				t.Fatal(err)
			}
			_, err = rs.Embed(req)
			srv.Close()
			if err == nil || !strings.Contains(err.Error(), bound) {
				t.Fatalf("status %d (announced %v): error %.200v, want one naming the bound", status, announced, err)
			}
		}
	}
}
