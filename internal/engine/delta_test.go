package engine

import (
	"context"
	"testing"
	"time"

	"netembed/internal/graph"
)

// TestDeltaInvalidatesCache pins the delta-native invalidation contract:
// the result cache composes the request fingerprint with the model
// version, and Model.Apply bumps the version, so a published delta makes
// every prior answer unreachable without any explicit flush.
func TestDeltaInvalidatesCache(t *testing.T) {
	e, svc := newTestEngine(t, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	submit := func() Info {
		job, err := e.Submit(fastRequest(77))
		if err != nil {
			t.Fatal(err)
		}
		info, err := waitJob(ctx, e, job.ID())
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateDone {
			t.Fatalf("job state %s, err %v", info.State, info.Err)
		}
		return info
	}

	first := submit()
	if first.FromCache {
		t.Fatal("first run must be a fresh search")
	}
	second := submit()
	if !second.FromCache {
		t.Fatal("identical re-run on an unchanged model must hit the cache")
	}
	if second.Response.ModelVersion != first.Response.ModelVersion {
		t.Fatal("cache hit reports a different model version")
	}

	// A monitor delta lands: one attribute nudge on one node.
	host, _ := svc.Model().Snapshot()
	v, err := svc.Model().Apply(&graph.Delta{
		SetNodeAttrs: []graph.NodeAttrUpdate{{
			Node: host.Node(0).Name,
			Set:  graph.Attrs{}.SetNum("weight", 1),
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v <= first.Response.ModelVersion {
		t.Fatalf("Apply did not advance the version (%d)", v)
	}

	third := submit()
	if third.FromCache {
		t.Fatal("a published delta must invalidate the cached answer")
	}
	if third.Response.ModelVersion != v {
		t.Fatalf("post-delta answer carries version %d, want %d", third.Response.ModelVersion, v)
	}

	// The new answer is cached under the new version.
	fourth := submit()
	if !fourth.FromCache || fourth.Response.ModelVersion != v {
		t.Fatal("post-delta answer should cache under the new version")
	}
}
