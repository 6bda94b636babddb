package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"netembed/internal/engine"
	"netembed/internal/graph"
	"netembed/internal/index"
	"netembed/internal/lifecycle"
	"netembed/internal/service"
	"netembed/internal/service/httpapi"
)

// The values below are cmd/netembedd's flag defaults, replicated here so
// the benchmark serves exactly what an operator who runs `netembedd` with
// no flags serves. README.md lists them side by side; if the daemon's
// defaults drift, change them here in a PR of its own.
const (
	defaultTimeout    = 30 * time.Second // -timeout
	defaultPathHops   = 3                // -path-hops
	defaultQueue      = 128              // -queue
	defaultCache      = 512              // -cache
	defaultWorkers    = 0                // -workers (0 = GOMAXPROCS)
	defaultRepairInt  = 5 * time.Second  // -repair-interval
	defaultMaxMigr    = 1.0              // -max-migration-frac
	defaultHdrTimeout = 10 * time.Second // -header-timeout
	defaultRegionAttr = "region"         // -region-attr
	defaultRefreshInt = 10 * time.Second // -refresh-routes
)

// stack is one single-process netembedd: indexed model → service → job
// engine → HTTP API with the lifecycle manager attached. serve puts it
// behind a loopback listener; the traced replay also drives the layers
// directly.
type stack struct {
	model *service.Model
	svc   *service.Service
	eng   *engine.Engine
	api   *httpapi.Server
	mgr   *lifecycle.Manager

	srv *http.Server
	url string
}

// newStack assembles the daemon's object graph over host.
func newStack(host *graph.Graph) *stack {
	model := service.NewModel(host)
	model.EnableIndex(index.Config{})
	svc := service.New(model, service.Config{
		DefaultTimeout:  defaultTimeout,
		DefaultPathHops: defaultPathHops,
	})
	eng := engine.New(svc, engine.Config{
		Workers:       defaultWorkers,
		QueueDepth:    defaultQueue,
		CacheCapacity: defaultCache,
	})
	api := httpapi.NewWithEngine(svc, eng)
	mgr := lifecycle.NewManager(svc, lifecycle.Config{
		RepairInterval:   defaultRepairInt,
		MaxMigrationFrac: defaultMaxMigr,
	})
	eng.SetMaintainer(mgr)
	api.AttachLifecycle(mgr)
	return &stack{model: model, svc: svc, eng: eng, api: api, mgr: mgr}
}

// listenAndServe starts handler on an ephemeral loopback port.
func listenAndServe(handler http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: defaultHdrTimeout}
	go func() {
		// Serve returns ErrServerClosed once Shutdown has run; Shutdown
		// waits for the listener and connections, so the goroutine ends
		// before stopServer returns.
		_ = srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), nil
}

func stopServer(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}

// serve starts the loopback server. wrap, when non-nil, interposes the
// traced pass's span-recording middleware.
func (s *stack) serve(wrap func(http.Handler) http.Handler) error {
	var h http.Handler = s.api
	if wrap != nil {
		h = wrap(h)
	}
	srv, url, err := listenAndServe(h)
	if err != nil {
		return err
	}
	s.srv, s.url = srv, url
	return nil
}

// close stops the server (if serving) and drains the engine.
func (s *stack) close() {
	if s.srv != nil {
		stopServer(s.srv)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.eng.Close(ctx)
}

// cluster is the distributed tier the way three-plus netembedd processes
// form it: one shard stack per region, each restricted to its slice of
// the host and serving the peer protocol over loopback, and a coordinator
// holding only the cut edges behind the operator API.
type cluster struct {
	shards []*stack
	names  []string
	coord  *service.Coordinator
	api    *httpapi.ClusterServer

	srv *http.Server
	url string

	refreshStop chan struct{}
	refreshWG   sync.WaitGroup
}

// regionsOf lists the host's region labels in sorted order.
func regionsOf(host *graph.Graph) []string {
	seen := map[string]bool{}
	for i := 0; i < host.NumNodes(); i++ {
		if label, ok := host.Node(graph.NodeID(i)).Attrs.Text(defaultRegionAttr); ok {
			seen[label] = true
		}
	}
	out := make([]string, 0, len(seen))
	for label := range seen {
		out = append(out, label)
	}
	sort.Strings(out)
	return out
}

// regionSlice is netembedd's -shard-region restriction: the subgraph the
// host induces on one region's nodes.
func regionSlice(host *graph.Graph, region string) (*graph.Graph, error) {
	var ids []graph.NodeID
	for i := 0; i < host.NumNodes(); i++ {
		if label, _ := host.Node(graph.NodeID(i)).Attrs.Text(defaultRegionAttr); label == region {
			ids = append(ids, graph.NodeID(i))
		}
	}
	sub, _, err := host.InducedSubgraph(ids)
	return sub, err
}

// newCluster boots the shard servers and the coordinator over them.
// wrapShard (nil in the untraced pass) decorates each service.Shard and
// wrapHandler each shard's HTTP handler, which is how the traced pass
// sees per-probe spans without editing the program. remote=false wires
// the coordinator to in-process LocalShards instead (no shard servers
// are started), the traced pass's middle rung.
func newCluster(host *graph.Graph, remote bool, wrapShard func(service.Shard) service.Shard, wrapHandler func(http.Handler) http.Handler) (*cluster, error) {
	c := &cluster{names: regionsOf(host), refreshStop: make(chan struct{})}
	var shards []service.Shard
	for _, region := range c.names {
		slice, err := regionSlice(host, region)
		if err != nil {
			c.close()
			return nil, err
		}
		st := newStack(slice)
		st.api.ConfigureShard(region, []string{region})
		c.shards = append(c.shards, st)
		var sh service.Shard
		if remote {
			if err := st.serve(wrapHandler); err != nil {
				c.close()
				return nil, err
			}
			rs, err := httpapi.NewRemoteShard(st.url, httpapi.RemoteShardConfig{Name: region})
			if err != nil {
				c.close()
				return nil, err
			}
			sh = rs
		} else {
			sh = service.NewLocalShard(region, []string{region}, st.svc)
		}
		if wrapShard != nil {
			sh = wrapShard(sh)
		}
		shards = append(shards, sh)
	}
	part, err := graph.PartitionByAttr(host, defaultRegionAttr, "unassigned", nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord, err = service.NewCoordinator(shards, service.CoordinatorConfig{
		RegionAttr:     defaultRegionAttr,
		DefaultTimeout: defaultTimeout,
		Boundary:       part.Cuts,
		Directed:       host.Directed(),
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.api = httpapi.NewClusterServer(c.coord)
	return c, nil
}

// serve puts the operator API behind a loopback listener and starts the
// daemon's periodic routing-table refresh.
func (c *cluster) serve(wrap func(http.Handler) http.Handler) error {
	var h http.Handler = c.api
	if wrap != nil {
		h = wrap(h)
	}
	srv, url, err := listenAndServe(h)
	if err != nil {
		return err
	}
	c.srv, c.url = srv, url
	c.refreshWG.Add(1)
	go func() {
		defer c.refreshWG.Done()
		tick := time.NewTicker(defaultRefreshInt)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.coord.RefreshRoutes()
			case <-c.refreshStop:
				return
			}
		}
	}()
	return nil
}

func (c *cluster) close() {
	close(c.refreshStop)
	c.refreshWG.Wait()
	if c.srv != nil {
		stopServer(c.srv)
	}
	for _, st := range c.shards {
		st.close()
	}
}

// checkHealthy fails when the coordinator booted with a shard it could
// not reach: every later number would describe a smaller tier.
func (c *cluster) checkHealthy() error {
	info := c.coord.Cluster()
	var bad []string
	for _, sh := range info.Shards {
		if !sh.Healthy {
			bad = append(bad, sh.Name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("shards unhealthy at boot: %v", bad)
	}
	if len(info.Shards) != len(c.names) {
		return errors.New("cluster reports fewer shards than regions")
	}
	return nil
}
