// Command qtsql is an interactive shell over a query-trading federation:
// type SQL, get the trading-optimized distributed plan and its answer.
//
// By default it simulates a telco federation in-process. With -connect it
// becomes the buyer of a real multi-process federation served by qtnode:
//
//	qtnode -id corfu -listen :7001 -office Corfu &
//	qtnode -id myconos -listen :7002 -office Myconos &
//	qtsql -connect corfu=localhost:7001,myconos=localhost:7002
//
// Commands: EXPLAIN <query>, EXPLAIN ANALYZE <query>, \trace on|off,
// \trace save <file>, \metrics, \ledger, \calibration, \slow, \stats,
// \nodes, \quit. Every negotiation is audited in a trading ledger: \ledger
// dumps the retained records as JSONL and \calibration prints the
// per-seller quoted-vs-measured cost report. Every executed query also
// lands in a flight recorder: \slow [n] lists the slowest retained
// dossiers (wall time, rows, quoted-vs-measured cost ratio and any trigger
// flags), and with -obs-addr the full dossiers are served at
// /debug/queries and /debug/queries/{id}. In simulation mode
// the federation can be perturbed interactively: \down <node> and
// \up <node> toggle node failures, \drain <node> and \undrain <node> walk a
// node through the elastic lifecycle (a draining node refuses new
// negotiations but finishes in-flight work; \nodes shows each node's
// lifecycle state and queue depths), and \chaos <seed> <rate> installs a
// seeded chaos plan dropping the given fraction of requests (\chaos off
// removes it).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"qtrade/internal/core"
	"qtrade/internal/exec"
	"qtrade/internal/flight"
	"qtrade/internal/ledger"
	"qtrade/internal/netsim"
	"qtrade/internal/obs"
	"qtrade/internal/storage"
	"qtrade/internal/trading"
	"qtrade/internal/value"
	"qtrade/internal/workload"
)

// session is the shell state shared by the in-process and remote modes.
type session struct {
	metrics *obs.Metrics
	ledg    *ledger.Ledger // audits every negotiation; feeds \ledger and /ledger
	flight  *flight.Recorder
	tracing bool
	last    *obs.Tracer   // spans of the most recent traced query
	tlog    *obs.TraceLog // feeds /trace/last when -obs-addr is set
	window  time.Duration // /metrics/history rollup window (-history-window)
}

// command handles one backslash command; returns false if it wasn't one.
func (s *session) command(line string) bool {
	switch {
	case line == `\trace on`:
		s.tracing = true
		fmt.Println("tracing on: each query records a span tree")
	case line == `\trace off`:
		s.tracing = false
		fmt.Println("tracing off")
	case strings.HasPrefix(line, `\trace save`):
		path := strings.TrimSpace(strings.TrimPrefix(line, `\trace save`))
		if path == "" {
			fmt.Println(`usage: \trace save <file>`)
			break
		}
		if s.last == nil {
			fmt.Println("no traced query yet (\\trace on, then run one)")
			break
		}
		w, err := os.Create(path)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		err = s.last.WriteChromeTrace(w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Printf("wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", path)
	case line == `\metrics`:
		fmt.Print(s.metrics.Snapshot())
	case line == `\ledger`:
		if s.ledg.Len() == 0 {
			fmt.Println("no negotiations recorded yet (run a query first)")
			break
		}
		if err := s.ledg.WriteJSONL(os.Stdout, 0); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	case line == `\calibration`:
		if s.ledg.Len() == 0 {
			fmt.Println("no negotiations recorded yet (run a query first)")
			break
		}
		fmt.Print(s.ledg.Calibration().Text())
	case line == `\slow` || strings.HasPrefix(line, `\slow `):
		n := 10
		if arg := strings.TrimSpace(strings.TrimPrefix(line, `\slow`)); arg != "" {
			v, err := strconv.Atoi(arg)
			if err != nil || v < 1 {
				fmt.Println(`usage: \slow [n]`)
				break
			}
			n = v
		}
		ds := s.flight.Slow(n)
		if len(ds) == 0 {
			fmt.Println("no queries recorded yet (run one first)")
			break
		}
		for _, d := range ds {
			flags := ""
			if len(d.Triggers) > 0 {
				flags = " [" + strings.Join(d.Triggers, ",") + "]"
			}
			fmt.Printf("  %-12s %8.2fms  rows=%-6d cost-ratio=%.2f%s\n",
				d.ID, d.WallMS, d.Rows, d.CostRatio, flags)
			fmt.Printf("    %s\n", d.SQL)
		}
	default:
		return false
	}
	return true
}

// begin parses the EXPLAIN / EXPLAIN ANALYZE prefixes and, when tracing is
// on, returns a fresh tracer for this query. The sellers need no tracer of
// their own: a traced query ships a sampled context on every RFB and fetch,
// and each seller's subtree comes back in its reply.
func (s *session) begin(line string) (sql string, explainOnly, analyze bool, tr *obs.Tracer) {
	sql = line
	upper := strings.ToUpper(line)
	switch {
	case strings.HasPrefix(upper, "EXPLAIN ANALYZE "):
		analyze = true
		sql = strings.TrimSpace(line[len("EXPLAIN ANALYZE "):])
	case strings.HasPrefix(upper, "EXPLAIN "):
		explainOnly = true
		sql = strings.TrimSpace(line[len("EXPLAIN "):])
	}
	if s.tracing {
		tr = obs.NewTracer()
		s.last = tr
	}
	return sql, explainOnly, analyze, tr
}

// end prints the per-query tracer's span tree.
func (s *session) end(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	if roots := tr.Roots(); len(roots) > 0 {
		s.tlog.Record(roots[0].Payload())
	}
	fmt.Print(tr.RenderText())
}

// query runs one line — SQL, EXPLAIN <sql> or EXPLAIN ANALYZE <sql> — for the
// buyer cfg describes, over comm: optimize, explain, then analyze or execute
// and print. store is the buyer's own data (nil for a buyer that holds none).
func (s *session) query(cfg core.Config, comm core.Comm, store *storage.Store, line string) {
	sql, explainOnly, analyze, tr := s.begin(line)
	cfg.Metrics, cfg.Tracer, cfg.Ledger, cfg.Flight = s.metrics, tr, s.ledg, s.flight
	res, err := core.Optimize(cfg, comm, sql)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		s.end(tr)
		return
	}
	ex := &exec.Executor{Store: store}
	if analyze {
		ex.Stats = exec.NewRunStats()
		if _, err := core.ExecuteResultTraced(comm, ex, res, tr); err != nil {
			fmt.Printf("execution error: %v\n", err)
		} else {
			fmt.Print(core.ExplainAnalyze(res, ex.Stats))
		}
		s.end(tr)
		return
	}
	fmt.Print(core.ExplainResult(res))
	if explainOnly {
		s.end(tr)
		return
	}
	out, err := core.ExecuteResultTraced(comm, ex, res, tr)
	s.end(tr)
	if err != nil {
		fmt.Printf("execution error: %v\n", err)
		return
	}
	printResult(out)
}

// serveObs starts the HTTP exposition surface when addr is non-empty: the
// flight recorder joins at /debug/queries, and a windowed metrics history
// (with an anomaly watchdog recording into the ledger) at /metrics/history.
func (s *session) serveObs(addr string) {
	if addr == "" {
		return
	}
	s.tlog = obs.NewTraceLogN(0)
	wd := flight.NewWatchdog(s.ledg, s.metrics, s.window)
	wd.Start()
	go func() {
		h := obs.Handler(s.metrics, s.tlog,
			obs.Endpoint{Path: "/ledger", Handler: s.ledg},
			obs.Endpoint{Path: "/calibration", Handler: s.ledg.CalibrationHandler()},
			obs.Endpoint{Path: "/metrics/history", Handler: wd.History()},
			obs.Endpoint{Path: "/debug/queries", Handler: s.flight},
			obs.Endpoint{Path: "/debug/queries/", Handler: s.flight})
		if err := http.ListenAndServe(addr, h); err != nil {
			slog.Error("obs server failed", "addr", addr, "err", err)
		}
	}()
	fmt.Printf("serving /metrics, /metrics/history, /debug/pprof, /debug/queries, /trace/last, /ledger and /calibration on %s\n", addr)
}

func main() {
	customers := flag.Int("customers", 50, "customers per office")
	offices := flag.String("offices", "Corfu,Myconos,Athens", "federation offices")
	connect := flag.String("connect", "", "comma-separated id=addr pairs of qtnode servers; empty = in-process simulation")
	callTimeout := flag.Duration("call-timeout", 0, "remote mode: bound on dialing a qtnode and, through the buyer's fault policy, on every call to it (0 = none)")
	logLevel := flag.String("log-level", "warn", "log verbosity: debug, info, warn or error")
	obsAddr := flag.String("obs-addr", "", "HTTP address serving /metrics, /metrics/history, /debug/pprof/*, /debug/queries, /trace/last, /ledger and /calibration (empty = no exposition)")
	histWindow := flag.Duration("history-window", 0, "rollup window for /metrics/history (0 = default 5s)")
	flag.Parse()

	setupLogging(*logLevel)

	if *connect != "" {
		runRemote(*offices, *connect, *callTimeout, *obsAddr, *histWindow)
		return
	}

	f := workload.NewTelco(workload.TelcoOptions{
		Offices:            strings.Split(*offices, ","),
		CustomersPerOffice: *customers,
		Seed:               1,
	})
	s := &session{metrics: obs.NewMetrics(), ledg: ledger.New(0),
		flight: flight.NewRecorder(0), window: *histWindow}
	f.SetObs(nil, s.metrics)
	f.SetLedger(s.ledg)
	s.serveObs(*obsAddr)
	slog.Info("federation ready", "offices", *offices, "customers", *customers)
	fmt.Printf("query-trading federation: offices %s + buyer hq\n", *offices)
	fmt.Println(`type SQL, "EXPLAIN [ANALYZE] <sql>", "\trace on", "\metrics", "\ledger", "\calibration",`)
	fmt.Println(`  "\slow [n]", "\stats", "\nodes", "\down <node>", "\up <node>", "\drain <node>",`)
	fmt.Println(`  "\undrain <node>", "\chaos <seed> <rate>" or "\quit"`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("qtsql> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\stats`:
			msgs, bytes := f.Net.Stats()
			fmt.Printf("network: %d messages, %d bytes\n", msgs, bytes)
			for _, pt := range sortedPairs(f.Net) {
				fmt.Printf("  %-20s %d messages, %d bytes\n", pt.label, pt.stats.Messages, pt.stats.Bytes)
			}
			if f.Net.FaultPlanActive() {
				cs := f.Net.ChaosStats()
				fmt.Printf("chaos: %d drops, %d error replies, %d slow calls, %d flap rejects, %d crashes\n",
					cs.Drops, cs.InjectedErrors, cs.SlowCalls, cs.FlapRejects, cs.Crashes)
			}
			continue
		case strings.HasPrefix(line, `\down `) || strings.HasPrefix(line, `\up `):
			down := strings.HasPrefix(line, `\down `)
			id := strings.TrimSpace(line[strings.Index(line, " ")+1:])
			if _, ok := f.Nodes[id]; !ok {
				fmt.Printf("unknown node %q\n", id)
				continue
			}
			f.Net.SetDown(id, down)
			if down {
				fmt.Printf("%s is down (peers now get hard errors; \\up %s to restore)\n", id, id)
			} else {
				fmt.Printf("%s is back up\n", id)
			}
			continue
		case strings.HasPrefix(line, `\drain `) || strings.HasPrefix(line, `\undrain `):
			drain := strings.HasPrefix(line, `\drain `)
			id := strings.TrimSpace(line[strings.Index(line, " ")+1:])
			n, ok := f.Nodes[id]
			if !ok {
				fmt.Printf("unknown node %q\n", id)
				continue
			}
			if drain {
				n.Drain("operator")
				fmt.Printf("%s draining: new negotiations refused, in-flight work finishes (\\undrain %s to rejoin)\n", id, id)
			} else if n.Undrain() {
				fmt.Printf("%s active again\n", id)
			} else {
				fmt.Printf("%s is not draining (state %s)\n", id, n.State())
			}
			continue
		case strings.HasPrefix(line, `\chaos`):
			args := strings.Fields(strings.TrimPrefix(line, `\chaos`))
			switch {
			case len(args) == 1 && args[0] == "off":
				f.Net.SetFaultPlan(nil)
				fmt.Println("chaos off")
			case len(args) == 2:
				seed, err1 := strconv.ParseInt(args[0], 10, 64)
				rate, err2 := strconv.ParseFloat(args[1], 64)
				if err1 != nil || err2 != nil || rate < 0 || rate > 1 {
					fmt.Println(`usage: \chaos <seed> <drop-rate 0..1> | \chaos off`)
					continue
				}
				f.Net.SetFaultPlan(&netsim.FaultPlan{Seed: seed, DropProb: rate})
				fmt.Printf("chaos on: seed %d, dropping %.0f%% of requests (\\chaos off to stop)\n", seed, rate*100)
			default:
				fmt.Println(`usage: \chaos <seed> <drop-rate 0..1> | \chaos off`)
			}
			continue
		case line == `\nodes`:
			ids := make([]string, 0, len(f.Nodes))
			for id := range f.Nodes {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				n := f.Nodes[id]
				h := n.Health()
				fmt.Printf("  %-10s state=%-8s ready=%-5v queue=%d inflight=%d tables=%v\n",
					id, h.State, h.Ready, h.QueueDepth, h.InflightRFBs, n.Store().Tables())
			}
			continue
		case s.command(line):
			continue
		case strings.HasPrefix(line, `\`):
			fmt.Printf("unknown command %s\n", line)
			continue
		}
		s.query(f.BuyerConfig(), f.Comm(), f.Nodes[f.Buyer].Store(), line)
	}
}

// setupLogging installs a text slog handler at the named level (slog's
// names, any case); an empty or unknown name keeps the command's default.
func setupLogging(level string) {
	lv := slog.LevelWarn
	if level != "" && lv.UnmarshalText([]byte(level)) != nil {
		fmt.Fprintf(os.Stderr, "qtsql: unknown -log-level %q, using warn\n", level)
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})))
}

type pairLine struct {
	label string
	stats netsim.PairStats
}

func sortedPairs(net *netsim.Network) []pairLine {
	byPair := net.StatsByPair()
	out := make([]pairLine, 0, len(byPair))
	for p, st := range byPair {
		out = append(out, pairLine{label: p.From + "->" + p.To, stats: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].label < out[j].label })
	return out
}

// runRemote drives a federation of qtnode processes over net/rpc. With a
// positive callTimeout the dial is bounded and every call runs under a fault
// policy with that CallTimeout, so a hung or unreachable qtnode fails fast
// instead of stalling the shell.
func runRemote(offices, connect string, callTimeout time.Duration, obsAddr string, histWindow time.Duration) {
	sch := workload.TelcoSchema(strings.Split(offices, ","))
	peers := map[string]trading.Peer{}
	rpcPeers := map[string]*netsim.RPCPeer{}
	for _, pair := range strings.Split(connect, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			slog.Error("bad -connect entry (want id=addr)", "entry", pair)
			os.Exit(1)
		}
		var p *netsim.RPCPeer
		var err error
		if callTimeout > 0 {
			p, err = netsim.DialPeerTimeout(addr, id, callTimeout)
		} else {
			p, err = netsim.DialPeer(addr, id)
		}
		if err != nil {
			slog.Error("dial failed", "node", id, "addr", addr, "err", err)
			os.Exit(1)
		}
		defer p.Close()
		peers[id] = p
		rpcPeers[id] = p
		slog.Info("connected", "node", id, "addr", addr)
		fmt.Printf("connected to %s at %s\n", id, addr)
	}
	comm := &core.PeerComm{
		PeerMap: peers,
		AwardFn: func(to string, aw trading.Award) error { return rpcPeers[to].Award(aw) },
		FetchFn: func(to string, req trading.ExecReq) (trading.ExecResp, error) {
			return rpcPeers[to].Execute(req)
		},
	}
	s := &session{metrics: obs.NewMetrics(), ledg: ledger.New(0),
		flight: flight.NewRecorder(0), window: histWindow}
	cfg := core.Config{ID: "qtsql", Schema: sch}
	if callTimeout > 0 {
		cfg.Faults = &trading.FaultPolicy{CallTimeout: callTimeout, Metrics: s.metrics}
	}
	s.serveObs(obsAddr)
	fmt.Println(`type SQL, "EXPLAIN [ANALYZE] <sql>", "\trace on", "\metrics", "\ledger", "\calibration", "\slow [n]" or "\quit"`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("qtsql> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == `\quit` || line == `\q` {
			return
		}
		if s.command(line) {
			continue
		}
		if strings.HasPrefix(line, `\`) {
			fmt.Printf("unknown command %s\n", line)
			continue
		}
		s.query(cfg, comm, nil, line)
	}
}

func printResult(res *exec.Result) {
	header := make([]string, len(res.Cols))
	for i, c := range res.Cols {
		header[i] = c.Name
		if c.Table != "" {
			header[i] = c.Table + "." + c.Name
		}
	}
	fmt.Println(strings.Join(header, " | "))
	for _, r := range res.Rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = renderValue(v)
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

func renderValue(v value.Value) string {
	if v.K == value.Str {
		return v.S
	}
	return v.String()
}
