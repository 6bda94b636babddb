package httpapi

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"netembed/internal/core"
	"netembed/internal/service"
)

// distinctStats returns a Stats whose every int64 counter holds its own
// value, so a counter dropped or written under another's name shows. It
// fills the fields by reflection, independently of the counter list.
func distinctStats() core.Stats {
	st := core.Stats{
		FilterBuild: 3 * time.Millisecond,
		TimeToFirst: 1500 * time.Microsecond,
		Elapsed:     7 * time.Millisecond,
	}
	v := reflect.ValueOf(&st).Elem()
	for i := range v.NumField() {
		if f := v.Field(i); f.Type() == reflect.TypeFor[int64]() {
			f.SetInt(int64(101 * (i + 1)))
		}
	}
	return st
}

// statsGolden is the stats object of an /embed reply carrying
// distinctStats, as the writer produced it before the counters were
// listed in one place: it pins the wire names and their order.
const statsGolden = `{
    "backjumps": 1010,
    "backtracks": 505,
    "boundCuts": 1515,
    "boundProbes": 1717,
    "constraintChk": 606,
    "edgePairsEval": 202,
    "filterEntries": 303,
    "incumbentUpdates": 1616,
    "nodesVisited": 404,
    "pruneOps": 707,
    "reachPrunes": 1414,
    "steals": 1111,
    "timeToFirstMs": 1.5,
    "wipeoutDepthSum": 909,
    "wipeouts": 808,
    "witnessHits": 1313,
    "witnessProbes": 1212
  }`

// TestStatsWireGolden: the reply writer and the encoding/json reference
// both render distinctStats as statsGolden.
func TestStatsWireGolden(t *testing.T) {
	st := distinctStats()
	if got := string(appendStats(nil, &st)); got != statsGolden {
		t.Errorf("appendStats:\n%s\nwant:\n%s", got, statsGolden)
	}
	ref, err := json.MarshalIndent(embedResponseJSON(&service.Response{Stats: st}).Stats, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != statsGolden {
		t.Errorf("embedResponseJSON stats:\n%s\nwant:\n%s", ref, statsGolden)
	}
}

// TestStatsShardWireRoundTrip: a shard reply's stats object, decoded the
// way the coordinator decodes it, gives back every counter and the time
// to first solution. The other durations are the coordinator's own.
func TestStatsShardWireRoundTrip(t *testing.T) {
	st := distinctStats()
	body := append([]byte(`{"stats": `), appendStats(nil, &st)...)
	body = append(body, '}')
	var out EmbedResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	want := st
	want.FilterBuild, want.Elapsed = 0, 0
	if got := statsFromJSON(out.Stats); got != want {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
}
