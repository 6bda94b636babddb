// Command netembedd serves the NETEMBED mapping service over HTTP (§III's
// service deployment): it loads (or synthesizes) a hosting network,
// optionally keeps it fresh with a simulated monitoring feed, and exposes
// the JSON/GraphML API of internal/service/httpapi.
//
// Usage:
//
//	netembedd -listen :8080 -host planetlab
//	netembedd -listen :8080 -host infra.graphml -monitor 5s
//	netembedd -listen :8081 -host west.graphml -shard-name west -shard-region west
//	netembedd -listen :8080 -federate -peers west=localhost:8081,east=localhost:8082 \
//	    -host full.graphml -region-attr region
//
// Endpoints: GET /healthz, GET/PUT /model, POST /deltas, POST /embed,
// POST /embed/batch, POST /jobs, GET/DELETE /jobs/{id}, GET /stats,
// POST/DELETE /reserve, POST /negotiate, POST /schedule,
// POST/GET/DELETE /embeddings. See internal/service/httpapi.
//
// Embeddings placed through POST /embeddings are long-lived managed
// objects: the lifecycle manager re-verifies them against every model
// publish, and a background repair pass — paced by -repair-interval and
// budgeted by -max-migration-frac — migrates degraded ones with
// minimal node movement, committing atomically through the ledger.
//
// Path-mode (§VIII link-to-path) queries — algorithm "path" — map query
// edges onto multi-hop hosting paths; -path-hops sets the default
// witness hop bound for requests that carry no maxHops.
//
// Embedding queries that carry an "objective" run as branch-and-bound
// optimizing searches and return the single cheapest embedding with its
// objectiveCost; polling a running optimizing job returns the feasible
// best-so-far mapping and cost. -repair-objective applies the same
// objective as the lifecycle repair planner's tie-break.
//
// Every search the API runs holds an engine slot: at most -workers
// searches run at once, at most -queue requests wait for a slot in
// arrival order, and a model-versioned result cache (-cache) answers
// repeats without a slot. Past the queue bound /embed, /embed/batch,
// /jobs, /negotiate, /schedule and POST /embeddings answer 429 instead of
// stacking waiters. A batch, a negotiation, a schedule scan and a
// placement each run their searches one after another in one slot. Only
// /jobs submissions are kept for polling.
//
// The model maintains a persistent host-capability index that the
// filter construction intersects instead of rescanning the host; POST
// /deltas patches both the model graph and the index copy-on-write, so
// monitor publishes cost what they touch, not what the network measures.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, the engine lets running searches finish and fails
// waiting requests, the monitoring goroutine is stopped, and the process
// exits cleanly.
//
// # Distributed tier
//
// -shard-name/-shard-region give a single-process daemon a shard
// identity: it keeps serving the full public API and additionally
// answers the /internal/shard/* peer protocol with that identity, so a
// coordinator can route to it. -shard-region also restricts the loaded
// host to the nodes labeled with those regions, so every member of a
// federation can be pointed at the same full host file.
//
// -federate flips the daemon into coordinator mode: instead of loading a
// model it builds RemoteShard clients for every -peers entry, derives
// the inter-shard cut edges by partitioning the -host description on
// -region-attr, then discards the graph — the coordinator holds no model
// copy. It serves the operator API (POST /embed, POST /deltas,
// GET /cluster) and refreshes its routing table from the peers
// periodically (-refresh-routes) and on stale-delta conflicts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"netembed"
	"netembed/internal/core"
	"netembed/internal/engine"
	"netembed/internal/graph"
	"netembed/internal/lifecycle"
	"netembed/internal/service"
	"netembed/internal/service/httpapi"
)

// parseRepairObjective translates the -repair-objective flag: empty
// disables the tie-break, "attr-cost:<attr>" minimizes the named host
// attribute over repaired placements, "load-balance" and "energy" use
// their built-in attribute defaults (an optional :<attr> overrides).
func parseRepairObjective(s string) (core.Objective, error) {
	if s == "" {
		return core.Objective{}, nil
	}
	kindName, attr, _ := strings.Cut(s, ":")
	var kind core.ObjectiveKind
	switch kindName {
	case "attr-cost":
		if attr == "" {
			return core.Objective{}, fmt.Errorf("-repair-objective attr-cost needs an attribute (attr-cost:<attr>)")
		}
		kind = core.ObjectiveAttrCost
	case "load-balance":
		kind = core.ObjectiveLoadBalance
	case "energy":
		kind = core.ObjectiveEnergy
	default:
		return core.Objective{}, fmt.Errorf("-repair-objective: unknown kind %q (want attr-cost:<attr>, load-balance or energy)", kindName)
	}
	return core.Objective{Kind: kind, Attr: attr}, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatalf("netembedd: %v", err)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", ":8080", "HTTP listen address")
		hostPath  = flag.String("host", "planetlab", "hosting network GraphML file, or 'planetlab'")
		seed      = flag.Int64("seed", 1, "seed for the synthetic host")
		monitor   = flag.Duration("monitor", 0, "enable the simulated monitoring feed with this period (0 = off)")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-query timeout")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window for in-flight requests")
		hdrLimit  = flag.Duration("header-timeout", 10*time.Second, "ReadHeaderTimeout guarding against slow-loris clients")
		workers   = flag.Int("workers", 0, "how many searches the API runs at once: the engine's slots (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 128, "how many requests may wait for a search slot (past it every searching endpoint answers 429)")
		cache     = flag.Int("cache", 512, "job-engine result cache capacity in entries (negative = disabled)")
		pathHops  = flag.Int("path-hops", 3, "default witness hop bound for path-mode (link-to-path) queries that carry no maxHops")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = disabled")
		repairInt = flag.Duration("repair-interval", 5*time.Second, "pace of the embedding lifecycle's background repair pass (0 = lifecycle disabled)")
		maxMigr   = flag.Float64("max-migration-frac", 1, "repair-plan migration budget as a fraction of each embedding's query nodes (>= 1 = unbounded)")
		repairObj = flag.String("repair-objective", "", "repair-plan tie-break objective: attr-cost:<attr>, load-balance, energy, or empty = first feasible plan")

		federate    = flag.Bool("federate", false, "run as a coordinator over -peers instead of serving a local model")
		peers       = flag.String("peers", "", "federate: comma-separated shard peers, each 'host:port' or 'name=host:port'")
		regionAttr  = flag.String("region-attr", "region", "node attribute that partitions the hosting network into shard regions")
		refreshInt  = flag.Duration("refresh-routes", 10*time.Second, "federate: routing-table refresh period (0 = boot-time only)")
		shardName   = flag.String("shard-name", "", "shard identity this daemon reports to coordinators")
		shardRegion = flag.String("shard-region", "", "comma-separated region labels this shard hosts")
	)
	flag.Parse()

	if *federate {
		return runFederate(federateConfig{
			listen:     *listen,
			peers:      splitList(*peers),
			regionAttr: *regionAttr,
			hostPath:   *hostPath,
			seed:       *seed,
			timeout:    *timeout,
			refresh:    *refreshInt,
			drain:      *drain,
			hdrLimit:   *hdrLimit,
		})
	}

	host, err := loadHost(*hostPath, *seed)
	if err != nil {
		return err
	}
	if regions := splitList(*shardRegion); len(regions) > 0 {
		restricted, err := restrictToRegions(host, *regionAttr, regions)
		if err != nil {
			return err
		}
		if restricted != host {
			log.Printf("restricted host to regions %v: kept %d of %d nodes",
				regions, restricted.NumNodes(), host.NumNodes())
		}
		host = restricted
	}
	model := netembed.NewModel(host)
	if *pathHops < 0 {
		return fmt.Errorf("-path-hops %d is negative", *pathHops)
	}
	svc := netembed.NewService(model, netembed.ServiceConfig{
		DefaultTimeout:  *timeout,
		DefaultPathHops: *pathHops,
	})
	eng := engine.New(svc, engine.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheCapacity: *cache,
	})

	// The monitor goroutine is joined on every exit path — the stop
	// channel and WaitGroup outlive any serve error.
	var monWG sync.WaitGroup
	monStop := make(chan struct{})
	if *monitor > 0 {
		mon := netembed.NewMonitor(model, service.MonitorConfig{Interval: *monitor, Seed: *seed})
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			mon.Run(monStop)
		}()
		log.Printf("monitoring feed enabled, period %v", *monitor)
	}
	stopMonitor := func() {
		close(monStop)
		monWG.Wait()
	}

	// Profiling stays off the service mux and off by default: search hot
	// spots are CPU-profiled against a running daemon only when the
	// operator opts in, and the debug endpoints never share a port with
	// the public API.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: *hdrLimit}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
		defer psrv.Close()
	}

	api := httpapi.NewWithEngine(svc, eng)
	if *shardName != "" || *shardRegion != "" {
		regions := splitList(*shardRegion)
		api.ConfigureShard(*shardName, regions)
		log.Printf("shard identity %q (regions %v)", *shardName, regions)
	}
	if *maxMigr <= 0 {
		return fmt.Errorf("-max-migration-frac %v is not positive", *maxMigr)
	}
	repairObjective, err := parseRepairObjective(*repairObj)
	if err != nil {
		return err
	}
	if *repairInt > 0 {
		// The lifecycle manager rides the engine's maintenance tick: every
		// model publish triggers a health sweep over the managed
		// embeddings, and degraded ones get minimal-migration repair plans
		// at most once per -repair-interval.
		mgr := lifecycle.NewManager(svc, lifecycle.Config{
			RepairInterval:   *repairInt,
			MaxMigrationFrac: *maxMigr,
			Objective:        repairObjective,
		})
		eng.SetMaintainer(mgr)
		api.AttachLifecycle(mgr)
		log.Printf("embedding lifecycle enabled, repair pass every %v (migration budget %.0f%%)",
			*repairInt, *maxMigr*100)
	}

	srv := &http.Server{
		Addr:              *listen,
		Handler:           api,
		ReadHeaderTimeout: *hdrLimit,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("serving NETEMBED on %s (host: %d nodes, %d edges)",
			*listen, host.NumNodes(), host.NumEdges())
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		drainEngine(eng, *drain)
		stopMonitor()
		return err
	case <-ctx.Done():
		log.Printf("shutdown signal received, draining for up to %v", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Stop accepting HTTP first, then drain the engine (running
		// searches finish, waiters fail cleanly), then join the monitor.
		err := srv.Shutdown(shutCtx)
		if engErr := eng.Close(shutCtx); engErr != nil {
			log.Printf("engine drain cut short: %v", engErr)
		}
		stopMonitor()
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		log.Print("shutdown complete")
		return nil
	}
}

// federateConfig carries the coordinator-mode flags into runFederate.
type federateConfig struct {
	listen     string
	peers      []string
	regionAttr string
	hostPath   string
	seed       int64
	timeout    time.Duration
	refresh    time.Duration
	drain      time.Duration
	hdrLimit   time.Duration
}

// runFederate boots the coordinator tier: RemoteShard clients for every
// peer, cut edges from partitioning the hosting description, and the
// operator API in front. The hosting graph is loaded only to extract the
// inter-region cut edges and then dropped — the coordinator keeps no
// model copy (GET /cluster reports coordinatorNodes: 0).
func runFederate(cfg federateConfig) error {
	if len(cfg.peers) == 0 {
		return fmt.Errorf("-federate needs -peers host:port[,host:port...]")
	}
	shards := make([]service.Shard, 0, len(cfg.peers))
	for _, peer := range cfg.peers {
		// 'west=host:port' names the peer to match its -shard-name (the
		// key /cluster and delta version maps report it under); a bare
		// address is named after its host:port.
		var rsCfg httpapi.RemoteShardConfig
		addr := peer
		if name, rest, ok := strings.Cut(peer, "="); ok {
			rsCfg.Name = name
			addr = rest
		}
		rs, err := httpapi.NewRemoteShard(addr, rsCfg)
		if err != nil {
			return err
		}
		shards = append(shards, rs)
	}

	host, err := loadHost(cfg.hostPath, cfg.seed)
	if err != nil {
		return err
	}
	part, err := graph.PartitionByAttr(host, cfg.regionAttr, "unassigned", nil)
	if err != nil {
		return err
	}
	cuts := part.Cuts
	directed := host.Directed()
	log.Printf("hosting description: %d nodes across %d regions, %d cut edges (graph discarded)",
		host.NumNodes(), len(part.Parts), len(cuts))

	// Only the cut edges survive past this point; the coordinator below
	// is constructed without any reference to the graph or partition.
	coord, err := service.NewCoordinator(shards, service.CoordinatorConfig{
		RegionAttr:     cfg.regionAttr,
		DefaultTimeout: cfg.timeout,
		Boundary:       cuts,
		Directed:       directed,
	})
	if err != nil {
		return err
	}

	// Peers that were down at boot join on a later refresh; the ticker
	// also keeps /cluster's node counts and versions converging after
	// deltas land directly on shards.
	refreshStop := make(chan struct{})
	var refreshWG sync.WaitGroup
	if cfg.refresh > 0 {
		refreshWG.Add(1)
		go func() {
			defer refreshWG.Done()
			tick := time.NewTicker(cfg.refresh)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					coord.RefreshRoutes()
				case <-refreshStop:
					return
				}
			}
		}()
	}
	stopRefresh := func() {
		close(refreshStop)
		refreshWG.Wait()
	}

	srv := &http.Server{
		Addr:              cfg.listen,
		Handler:           httpapi.NewClusterServer(coord),
		ReadHeaderTimeout: cfg.hdrLimit,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("coordinating %d shards on %s (region attr %q, %d boundary edges)",
			len(shards), cfg.listen, cfg.regionAttr, len(cuts))
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		stopRefresh()
		return err
	case <-ctx.Done():
		log.Printf("shutdown signal received, draining for up to %v", cfg.drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		stopRefresh()
		if err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
			return serveErr
		}
		log.Print("shutdown complete")
		return nil
	}
}

// restrictToRegions cuts the hosting network down to the nodes labeled
// with one of the shard's regions. Every member of a federation can then
// share one full host file: each shard daemon keeps only its slice, and
// the coordinator keeps only the cut edges. A host already reduced to
// the shard's regions passes through untouched.
func restrictToRegions(host *netembed.Graph, attr string, regions []string) (*netembed.Graph, error) {
	want := make(map[string]bool, len(regions))
	for _, r := range regions {
		want[r] = true
	}
	var ids []graph.NodeID
	for i := 0; i < host.NumNodes(); i++ {
		id := graph.NodeID(i)
		if label, ok := host.Node(id).Attrs.Text(attr); ok && want[label] {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-shard-region %v: no host node carries a matching %q attribute", regions, attr)
	}
	if len(ids) == host.NumNodes() {
		return host, nil
	}
	sub, _, err := host.InducedSubgraph(ids)
	return sub, err
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// drainEngine bounds an engine shutdown on the error exit path.
func drainEngine(eng *engine.Engine, window time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	if err := eng.Close(ctx); err != nil {
		log.Printf("engine drain cut short: %v", err)
	}
}

func loadHost(path string, seed int64) (*netembed.Graph, error) {
	if path == "planetlab" {
		return netembed.DefaultPlanetLab(seed), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := netembed.DecodeGraphML(f)
	if err != nil {
		return nil, fmt.Errorf("host %s: %v", path, err)
	}
	return g, nil
}
