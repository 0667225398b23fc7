// Command qtnode serves one autonomous federation node over TCP (net/rpc),
// so a federation can run as separate processes instead of in-process
// simulation. For demonstration it loads one office of the telco
// customer-care scenario.
//
// Usage:
//
//	qtnode -id corfu -listen :7001 -offices Corfu,Myconos,Athens -office Corfu
//
// A buyer process can then dial each node with netsim.DialPeer and run the
// same trading protocols used in simulation. On SIGINT/SIGTERM the node
// drains gracefully: new Depth-0 RFBs are refused while in-flight awards
// and deliveries finish (bounded by -drain-timeout), standing offers are
// revoked, and the seller-side metrics (RFBs served, offers priced, pricing
// latency histograms) are printed before exiting. A second signal exits
// without waiting.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/node"
	"qtrade/internal/obs"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

func main() {
	id := flag.String("id", "corfu", "node id (also the RPC service name)")
	listen := flag.String("listen", ":7001", "TCP listen address")
	officesFlag := flag.String("offices", "Corfu,Myconos,Athens", "all offices of the federation schema")
	office := flag.String("office", "Corfu", "the office whose customer partition this node holds")
	customers := flag.Int("customers", 100, "customers per office")
	lines := flag.Int("lines", 3, "invoice lines per customer")
	invoices := flag.Bool("invoices", true, "hold a full invoiceline replica")
	competitive := flag.Bool("competitive", false, "price with an adaptive profit margin instead of truthfully")
	slow := flag.Duration("slow", 0, "delay added to every served call (simulate a straggling seller)")
	seed := flag.Int64("seed", 1, "data seed (must match across the federation)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	obsAddr := flag.String("obs-addr", "", "HTTP address serving /metrics (Prometheus text), /metrics/history, /healthz, /debug/pprof/*, /trace/last, /ledger and /calibration (empty = no exposition)")
	traceKeep := flag.Int("trace-keep", 0, "how many sampled traces /trace/last retains (0 = default capacity)")
	historyWindow := flag.Duration("history-window", 0, "width of one /metrics/history rollup window (0 = default)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a SIGINT/SIGTERM drain waits for in-flight work before revoking standing offers and exiting")
	peersFlag := flag.String("peers", "", "subcontract peers as id=addr,... — enables §3.5 Depth-1 subcontracting over net/rpc (peers are dialed lazily)")
	flag.Parse()

	setupLogging(*logLevel)

	offices := strings.Split(*officesFlag, ",")
	// Build the full deterministic dataset, then keep only this node's part
	// (every process generates the same federation from the shared seed).
	opts := workload.TelcoOptions{
		Offices:            offices,
		CustomersPerOffice: *customers,
		LinesPerCustomer:   *lines,
		Seed:               *seed,
	}
	fed := workload.NewTelco(opts)
	src, ok := fed.Nodes[strings.ToLower(*office)]
	if !ok {
		slog.Error("office not in federation", "office", *office, "offices", offices)
		os.Exit(1)
	}

	var strat trading.SellerStrategy
	if *competitive {
		strat = trading.NewCompetitive()
	}
	metrics := obs.NewMetrics()
	cfg := node.Config{ID: *id, Schema: fed.Schema, Strategy: strat, Metrics: metrics}
	if *peersFlag != "" {
		dialer, err := newPeerDialer(*peersFlag)
		if err != nil {
			slog.Error("bad -peers", "err", err)
			os.Exit(1)
		}
		cfg.SubcontractPeers = dialer.peers
	}
	n := node.New(cfg)
	copyStore(src, n)
	if !*invoices {
		// Rebuild without the invoice replica: keep only customer data.
		n = node.New(cfg)
		copyTable(src, n, "customer")
	}
	traceLog := obs.NewTraceLogN(*traceKeep)
	n.SetTraceLog(traceLog)
	led := ledger.New(0)
	n.SetLedger(led)

	if *obsAddr != "" {
		// Windowed metrics history + anomaly watchdog: the sampler rolls the
		// registry into fixed-width windows served at /metrics/history, and
		// the watchdog compares each fresh window against trailing baselines,
		// recording anomalies into the ledger and watchdog.* gauges.
		hist := obs.NewHistory(metrics, *historyWindow, 0)
		wd := flight.NewWatchdog(flight.WatchdogConfig{}, led, metrics)
		wd.Attach(hist)
		hist.Start()
		go func() {
			h := obs.Handler(metrics, traceLog,
				obs.Endpoint{Path: "/ledger", Handler: led},
				obs.Endpoint{Path: "/calibration", Handler: led.CalibrationHandler()},
				obs.Endpoint{Path: "/metrics/history", Handler: hist},
				obs.HealthEndpoint(func() any { return n.Health() }))
			if err := http.ListenAndServe(*obsAddr, h); err != nil {
				slog.Error("obs server failed", "addr", *obsAddr, "err", err)
			}
		}()
		slog.Info("obs exposition", "addr", *obsAddr)
	}

	var svc netsim.Service = n
	if *slow > 0 {
		svc = slowService{Service: n, delay: *slow}
	}
	ln, err := netsim.ServeRPC(*listen, *id, svc)
	if err != nil {
		slog.Error("serve failed", "err", err)
		os.Exit(1)
	}
	slog.Info("serving", "id", *id, "office", *office, "addr", ln.Addr().String(),
		"tables", fmt.Sprint(n.Store().Tables()), "competitive", *competitive, "slow", *slow)
	fmt.Printf("qtnode %s serving office %s on %s (tables: %v)\n",
		*id, *office, ln.Addr(), n.Store().Tables())

	// Graceful drain: the first SIGINT/SIGTERM flips the node to Draining —
	// new Depth-0 RFBs are refused with a typed drain rejection (buyers skip
	// this node without burning retries) while in-flight awards, deliveries
	// and subcontracts run to completion (bounded by -drain-timeout). Only
	// then are the remaining standing offers revoked and the listener
	// closed. A second signal skips the wait and exits hard.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	n.Drain("signal")
	slog.Info("draining", "id", *id, "timeout", *drainTimeout)
	quiesced := make(chan bool, 1)
	go func() { quiesced <- n.Quiesce(*drainTimeout) }()
	select {
	case ok := <-quiesced:
		if !ok {
			slog.Warn("drain timeout elapsed with work still in flight", "id", *id)
		}
	case <-sig:
		slog.Warn("second signal: exiting without waiting for quiesce", "id", *id)
	}
	revoked := n.RevokeStandingOffers()
	_ = ln.Close()
	slog.Info("shutting down", "id", *id, "standing_offers_revoked", revoked)
	if snap := metrics.Snapshot(); snap != "" {
		fmt.Printf("-- seller metrics for %s --\n%s", *id, snap)
	}
}

// slowService delays every served call by a fixed amount — a permanently
// slow seller for exercising the buyer's call timeouts and circuit breakers
// against a real process.
type slowService struct {
	netsim.Service
	delay time.Duration
}

func (s slowService) RequestBids(rfb trading.RFB) (trading.BidReply, error) {
	time.Sleep(s.delay)
	return s.Service.RequestBids(rfb)
}

func (s slowService) ImproveBids(req trading.ImproveReq) (trading.BidReply, error) {
	time.Sleep(s.delay)
	return s.Service.ImproveBids(req)
}

func (s slowService) Award(aw trading.Award) error {
	time.Sleep(s.delay)
	return s.Service.Award(aw)
}

func (s slowService) Execute(req trading.ExecReq) (trading.ExecResp, error) {
	time.Sleep(s.delay)
	return s.Service.Execute(req)
}

// peerDialer lazily dials subcontract peers by id so a federation of qtnode
// processes can start in any order: a peer is connected on first use, and
// an unreachable peer simply stays out of the subcontracting pool.
type peerDialer struct {
	mu    sync.Mutex
	addrs map[string]string
	conns map[string]*netsim.RPCPeer
}

func newPeerDialer(spec string) (*peerDialer, error) {
	d := &peerDialer{addrs: map[string]string{}, conns: map[string]*netsim.RPCPeer{}}
	for _, ent := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(ent), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("want id=addr, got %q", ent)
		}
		d.addrs[id] = addr
	}
	return d, nil
}

func (d *peerDialer) peer(id string) (*netsim.RPCPeer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.conns[id]; ok {
		return p, nil
	}
	addr, ok := d.addrs[id]
	if !ok {
		return nil, fmt.Errorf("unknown subcontract peer %q", id)
	}
	p, err := netsim.DialPeerTimeout(addr, id, 5*time.Second)
	if err != nil {
		return nil, err
	}
	d.conns[id] = p
	return p, nil
}

func (d *peerDialer) peers() map[string]trading.Peer {
	out := map[string]trading.Peer{}
	for id := range d.addrs {
		p, err := d.peer(id)
		if err != nil {
			slog.Warn("subcontract peer unavailable", "peer", id, "err", err)
			continue
		}
		out[id] = p
	}
	return out
}

// setupLogging installs a text slog handler at the requested level.
func setupLogging(level string) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	case "info", "":
		lv = slog.LevelInfo
	default:
		lv = slog.LevelInfo
		fmt.Fprintf(os.Stderr, "qtnode: unknown -log-level %q, using info\n", level)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})))
}

func copyStore(src, dst *node.Node) {
	for _, table := range src.Store().Tables() {
		copyTable(src, dst, table)
	}
}

func copyTable(src, dst *node.Node, table string) {
	def, ok := src.Schema().Table(table)
	if !ok {
		return
	}
	for _, pid := range src.Store().PartIDs(table) {
		if _, err := dst.Store().CreateFragment(def, pid); err != nil {
			fatal(err)
		}
		var rows []value.Row
		if err := src.Store().Scan(table, pid, nil, func(r value.Row) bool {
			rows = append(rows, r)
			return true
		}); err != nil {
			fatal(err)
		}
		if err := dst.Store().Insert(table, pid, rows...); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	slog.Error("data load failed", "err", err)
	os.Exit(1)
}
