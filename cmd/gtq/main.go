// Command gtq submits a GTravel traversal to a running GraphTrek cluster
// over TCP and prints the returned vertices.
//
// The query is assembled from flags, mirroring the GTravel call chain:
//
//	gtq -self 3 -servers 3 -addrs :7000,:7001,:7002,:7003 \
//	    -v 42 -e "run[ts:100..200],read" -va "type=text" -rtn 2 -mode graphtrek
//
// -e takes comma-separated edge labels, each optionally carrying one
// RANGE filter in brackets (key:lo..hi). -va applies one EQ vertex filter
// (key=value) to the final step. -rtn marks a step index for return.
//
// Against a replicated cluster, pass -replicas to match the servers'
// -replicas flag; that enables the quorum write path, which -load uses to
// stream a name-addressed mutation script (one op per line, see loadFile)
// into the cluster in batches.
//
// Two introspection modes skip the traversal entirely: -events pulls every
// backend's control-plane journal and prints the merged, time-sorted
// timeline; -status pulls every backend's live status document and prints
// a per-partition replication table (epoch, role, applied/acked/commit
// watermarks, lag, handoffs).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"graphtrek/internal/core"
	"graphtrek/internal/events"
	"graphtrek/internal/model"
	"graphtrek/internal/partition"
	"graphtrek/internal/property"
	"graphtrek/internal/query"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
	"graphtrek/internal/status"
	"graphtrek/internal/trace"
)

var modes = map[string]core.Mode{
	"sync":      core.ModeSync,
	"async":     core.ModeAsyncPlain,
	"graphtrek": core.ModeGraphTrek,
	"client":    core.ModeClientSide,
}

func main() {
	self := flag.Int("self", -1, "this client's node id (a slot after the backends)")
	servers := flag.Int("servers", 1, "number of backend servers")
	addrs := flag.String("addrs", "", "comma-separated node addresses")
	vIDs := flag.String("v", "", "comma-separated source vertex ids")
	vNames := flag.String("names", "", "comma-separated source vertex names, resolved through the interning dictionary (instead of -v)")
	vLabel := flag.String("vlabel", "", "source vertex label (instead of -v)")
	eSpec := flag.String("e", "", "comma-separated edge labels, each optionally label[key:lo..hi]")
	vaSpec := flag.String("va", "", "final-step vertex EQ filter, key=value")
	rtnStep := flag.Int("rtn", -1, "step index to mark with rtn() (-1: none)")
	modeName := flag.String("mode", "graphtrek", "engine: sync | async | graphtrek | client")
	timeout := flag.Duration("timeout", 2*time.Minute, "client wait timeout per attempt")
	retries := flag.Int("retries", 0, "traversal restarts after a failed attempt (rotates coordinator)")
	profile := flag.Bool("profile", false, "after the traversal, fetch execution traces and print a per-step cost table (server-side modes only)")
	critPath := flag.Bool("critical-path", false, "after the traversal, assemble the causal trace DAG and print the slowest hop chains (server-side modes only)")
	topK := flag.Int("top", 3, "with -critical-path, how many chains to print")
	resolve := flag.Bool("resolve", false, "materialize result ids back to their interned names")
	replicas := flag.Int("replicas", 0, "replicas per partition; must match graphtrek-server -replicas (0: unreplicated cluster, writes disabled)")
	load := flag.String("load", "", "bulk-load a mutation script file through the quorum write path instead of running a traversal (requires -replicas)")
	batch := flag.Int("batch", 256, "with -load, mutations per write round")
	showEvents := flag.Bool("events", false, "pull every backend's control-plane event journal and print the merged timeline instead of running a traversal")
	showStatus := flag.Bool("status", false, "pull every backend's status document and print the replication status table instead of running a traversal")
	flag.Parse()

	if err := run(*self, *servers, *replicas, *addrs, *vIDs, *vNames, *vLabel, *eSpec, *vaSpec, *rtnStep, *modeName, *timeout, *retries, *profile, *critPath, *topK, *resolve, *load, *batch, *showEvents, *showStatus); err != nil {
		fmt.Fprintln(os.Stderr, "gtq:", err)
		os.Exit(1)
	}
}

func run(self, servers, replicas int, addrs, vIDs, vNames, vLabel, eSpec, vaSpec string, rtnStep int, modeName string, timeout time.Duration, retries int, profile, critPath bool, topK int, resolve bool, load string, batch int, showEvents, showStatus bool) error {
	mode, ok := modes[modeName]
	if !ok {
		return fmt.Errorf("unknown -mode %q", modeName)
	}
	if addrs == "" || self < servers {
		return fmt.Errorf("need -addrs and a -self slot after the %d backends", servers)
	}
	if vIDs != "" && vNames != "" {
		return fmt.Errorf("-v and -names are mutually exclusive")
	}
	// A replicated cluster needs the route view (write path); the
	// plain hash partitioner addresses a single-copy cluster read-only.
	var part partition.Partitioner = partition.NewHash(servers)
	if replicas > 0 {
		part = route.NewView(route.Identity(servers, replicas))
	}
	client := core.NewClient(part)
	tcp, err := rpc.NewTCP(self, strings.Split(addrs, ","), client.Handle)
	if err != nil {
		return err
	}
	defer tcp.Close()
	client.Bind(tcp)

	if load != "" {
		return loadFile(client, load, batch, timeout)
	}
	if showEvents || showStatus {
		if showEvents {
			evs, err := client.ClusterEvents(timeout)
			if err != nil {
				return err
			}
			printEvents(evs)
		}
		if showStatus {
			sts, err := client.ClusterStatus(timeout)
			if err != nil {
				return err
			}
			printStatus(sts)
		}
		return nil
	}
	if vNames != "" {
		// Resolve the source names to interned ids at the client boundary;
		// the traversal itself runs purely on integer ids.
		names := strings.Split(vNames, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
		ids, err := client.ResolveNames(names, core.WriteOptions{Timeout: timeout})
		if err != nil {
			return fmt.Errorf("resolve sources: %w", err)
		}
		var parts []string
		for i, id := range ids {
			if id == 0 {
				return fmt.Errorf("source name %q was never interned", names[i])
			}
			parts = append(parts, strconv.FormatUint(uint64(id), 10))
		}
		vIDs = strings.Join(parts, ",")
	}
	tr, err := buildTravel(vIDs, vLabel, eSpec, vaSpec, rtnStep)
	if err != nil {
		return err
	}
	plan, err := tr.Compile()
	if err != nil {
		return err
	}
	// namer materializes result ids back to names when -resolve is set.
	var namer func([]model.VertexID) []string
	if resolve {
		namer = func(ids []model.VertexID) []string {
			names, err := client.NamesOf(ids, core.WriteOptions{Timeout: timeout})
			if err != nil {
				fmt.Fprintln(os.Stderr, "gtq: resolve results:", err)
				return nil
			}
			return names
		}
	}

	fmt.Printf("gtq: %s (mode %s)\n", plan, mode)
	opts := core.SubmitOptions{Mode: mode, Coordinator: -1, Timeout: timeout, Retries: retries}
	start := time.Now()
	if !profile && !critPath {
		res, err := client.SubmitPlan(plan, opts)
		if err != nil {
			return err
		}
		printResults(res, start, namer)
		return nil
	}
	// Profiling and DAG assembly need the traversal handle to address the
	// trace queries, so run a single async attempt (retries would discard
	// the profiled id).
	if mode == core.ModeClientSide {
		return fmt.Errorf("-profile/-critical-path require a server-side mode (the client mode has no per-execution traces to fetch)")
	}
	h, err := client.SubmitPlanAsync(plan, opts)
	if err != nil {
		return err
	}
	res, err := h.Wait(timeout)
	if err != nil {
		return err
	}
	printResults(res, start, namer)
	if profile {
		stats, err := h.Profile(0)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		printProfile(stats)
	}
	if critPath {
		dag, err := h.FetchDAG(0)
		if err != nil {
			return fmt.Errorf("critical-path: %w", err)
		}
		printCriticalPath(dag, topK)
	}
	return nil
}

func printResults(res []model.VertexID, start time.Time, namer func([]model.VertexID) []string) {
	fmt.Printf("gtq: %d vertices in %v\n", len(res), time.Since(start).Round(time.Millisecond))
	var names []string
	if namer != nil {
		names = namer(res)
	}
	for i, v := range res {
		if i < len(names) && names[i] != "" {
			fmt.Printf("%s\t%s\n", v, names[i])
			continue
		}
		fmt.Println(v)
	}
}

// printEvents renders the merged cluster timeline, one line per event,
// oldest first. Part/peer/epoch columns print "-" when the event type has
// no such subject.
func printEvents(evs []events.Event) {
	if len(evs) == 0 {
		fmt.Println("gtq: no control-plane events recorded (quiet cluster, or journals disabled)")
		return
	}
	fmt.Printf("gtq: %d control-plane events, oldest first\n", len(evs))
	fmt.Println("time             srv   seq  type            part  peer  epoch  detail")
	opt := func(v int) string {
		if v < 0 {
			return "-"
		}
		return strconv.Itoa(v)
	}
	for _, e := range evs {
		epoch := "-"
		if e.Epoch > 0 {
			epoch = strconv.FormatUint(e.Epoch, 10)
		}
		detail := e.Detail
		if e.Count > 1 {
			detail = fmt.Sprintf("x%d %s", e.Count, detail)
		}
		fmt.Printf("%s  %3d  %4d  %-14s  %4s  %4s  %5s  %s\n",
			time.Unix(0, e.TimeUnixNano).Format("15:04:05.000000"),
			e.Server, e.Seq, e.Type, opt(e.Part), opt(e.Peer), epoch, detail)
	}
}

// printStatus renders each backend's status document: a one-line server
// summary (readiness, executor queue, cache), then a per-partition
// replication table for servers that hold partition roles.
func printStatus(sts []status.Server) {
	for _, st := range sts {
		ready := "ready"
		if !st.Ready {
			ready = "NOT READY: " + strings.Join(st.NotReadyReasons, "; ")
		}
		fmt.Printf("gtq: server %d: %s  queue %d (high-water %d)  cache v %d/%d a %d/%d hit/miss\n",
			st.Server, ready, st.QueueLen, st.QueueHighWater,
			st.Cache.VtxHits, st.Cache.VtxMisses, st.Cache.AdjHits, st.Cache.AdjMisses)
		if len(st.Partitions) == 0 {
			continue
		}
		fmt.Println("  part  epoch  role      primary  followers     applied    acked   commit  lag(n)  lag(B)   lag-age  handoffs")
		for _, p := range st.Partitions {
			var fol []string
			for _, f := range p.Followers {
				fol = append(fol, strconv.Itoa(f))
			}
			followers := strings.Join(fol, ",")
			if followers == "" {
				followers = "-"
			}
			role := p.Role
			if p.Joining {
				role += "+join"
			}
			fmt.Printf("  %4d  %5d  %-8s  %7d  %-9s  %8d  %7d  %7d  %6d  %6d  %8v  %8d\n",
				p.Part, p.Epoch, role, p.Primary, followers,
				p.AppliedSeq, p.AckedSeq, p.CommitSeq, p.LagEntries, p.LagBytes,
				time.Duration(p.LagAgeNs).Round(time.Microsecond), p.HandoffsInFlight)
		}
	}
}

// printProfile renders the per-step cost table: one row per traversal step
// (servers merged), then the per-(step, server) breakdown.
func printProfile(stats []trace.StepStat) {
	if len(stats) == 0 {
		fmt.Println("gtq: no trace spans buffered (tracing disabled, or spans already evicted)")
		return
	}
	const header = "step  srv  execs  frontier  redundant  combined  real  max-wait      wall          errs"
	row := func(st trace.StepStat) {
		srv := "all"
		if st.Server >= 0 {
			srv = fmt.Sprintf("%d", st.Server)
		}
		fmt.Printf("%4d  %3s  %5d  %8d  %9d  %8d  %4d  %-12v  %-12v  %d\n",
			st.Step, srv, st.Execs, st.Frontier, st.Redundant, st.Combined, st.Real,
			time.Duration(st.MaxQueueWaitNs).Round(time.Microsecond),
			time.Duration(st.WallNs).Round(time.Microsecond), st.Errs)
	}
	fmt.Println("gtq: per-step profile (servers merged)")
	fmt.Println(header)
	for _, st := range trace.MergeSteps(stats) {
		row(st)
	}
	fmt.Println("gtq: per-step profile by server")
	fmt.Println(header)
	for _, st := range stats {
		row(st)
	}
}

// printCriticalPath renders the assembled DAG's ledger cross-check and the
// top-K slowest root→leaf chains with per-hop attribution: where each
// chain's time went — queued behind other work, computing, or in the
// network/batching gap after the parent dispatched.
func printCriticalPath(dag *trace.DAG, topK int) {
	if len(dag.Nodes) == 0 {
		fmt.Println("gtq: no trace spans buffered (tracing disabled, or spans already evicted)")
		return
	}
	status := "incomplete"
	if dag.Complete() {
		status = "complete"
	}
	fmt.Printf("gtq: causal DAG for travel %d: %d execs, %d roots, %d orphans, %d duplicates (%s)\n",
		dag.Travel, len(dag.Nodes), len(dag.Roots), len(dag.Orphans), len(dag.Duplicates), status)
	if dag.Summary != nil {
		fmt.Printf("gtq: ledger created %d, ended %d, elapsed %v\n",
			dag.Summary.Created, dag.Summary.Ended, time.Duration(dag.Summary.ElapsedNs).Round(time.Microsecond))
	}
	if dag.SpansDropped > 0 {
		fmt.Printf("gtq: warning: %d spans evicted from trace rings — orphans may be ring churn\n", dag.SpansDropped)
	}
	chains := dag.TopChains(topK)
	for i, ch := range chains {
		fmt.Printf("gtq: chain %d: %v over %d hops (root %d -> leaf %d)\n",
			i+1, time.Duration(ch.DurationNs).Round(time.Microsecond), len(ch.Hops), ch.Root, ch.Leaf)
		fmt.Println("  step  srv        queue      compute          gap  exec")
		for _, h := range ch.Hops {
			fmt.Printf("  %4d  %3d  %11v  %11v  %11v  %d\n",
				h.Step, h.Server,
				time.Duration(h.QueueNs).Round(time.Microsecond),
				time.Duration(h.ComputeNs).Round(time.Microsecond),
				time.Duration(h.GapNs).Round(time.Microsecond), h.Exec)
		}
	}
}

// loadFile streams a name-addressed mutation script into the cluster in
// batches over the quorum write path. One op per line, # comments:
//
//	v <name> <label> [key=value ...]     add or update a vertex
//	dv <name>                            delete a vertex (+ out-edges)
//	e <src> <label> <dst> [key=value ...]  add a directed edge
//	de <src> <label> <dst>               delete a directed edge
//
// Integer values intern as ints, everything else as strings.
func loadFile(client *core.Client, path string, batch int, timeout time.Duration) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if batch < 1 {
		batch = 1
	}
	opts := core.WriteOptions{Timeout: timeout}
	var pending []core.NamedMutation
	total := 0
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		if _, err := client.Mutate(pending, opts); err != nil {
			return err
		}
		total += len(pending)
		pending = pending[:0]
		return nil
	}
	start := time.Now()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		m, ok, err := parseMutation(sc.Text())
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !ok {
			continue
		}
		pending = append(pending, m)
		if len(pending) >= batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Printf("gtq: loaded %d mutations in %v\n", total, time.Since(start).Round(time.Millisecond))
	return nil
}

// parseMutation parses one script line; ok is false for blanks and comments.
func parseMutation(s string) (core.NamedMutation, bool, error) {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return core.NamedMutation{}, false, nil
	}
	props := func(kvs []string) (property.Map, error) {
		if len(kvs) == 0 {
			return nil, nil
		}
		m := make(property.Map, len(kvs))
		for _, kv := range kvs {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("bad property %q, want key=value", kv)
			}
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				m[k] = property.Int(n)
			} else {
				m[k] = property.String(v)
			}
		}
		return m, nil
	}
	switch op, args := fields[0], fields[1:]; op {
	case "v":
		if len(args) < 2 {
			return core.NamedMutation{}, false, fmt.Errorf("bad v line, want v <name> <label> [key=value ...]")
		}
		p, err := props(args[2:])
		if err != nil {
			return core.NamedMutation{}, false, err
		}
		return core.NamedMutation{Op: core.NamedAddVertex, Name: args[0], Label: args[1], Props: p}, true, nil
	case "dv":
		if len(args) != 1 {
			return core.NamedMutation{}, false, fmt.Errorf("bad dv line, want dv <name>")
		}
		return core.NamedMutation{Op: core.NamedDelVertex, Name: args[0]}, true, nil
	case "e":
		if len(args) < 3 {
			return core.NamedMutation{}, false, fmt.Errorf("bad e line, want e <src> <label> <dst> [key=value ...]")
		}
		p, err := props(args[3:])
		if err != nil {
			return core.NamedMutation{}, false, err
		}
		return core.NamedMutation{Op: core.NamedAddEdge, Src: args[0], Label: args[1], Dst: args[2], Props: p}, true, nil
	case "de":
		if len(args) != 3 {
			return core.NamedMutation{}, false, fmt.Errorf("bad de line, want de <src> <label> <dst>")
		}
		return core.NamedMutation{Op: core.NamedDelEdge, Src: args[0], Label: args[1], Dst: args[2]}, true, nil
	default:
		return core.NamedMutation{}, false, fmt.Errorf("unknown op %q (v | dv | e | de)", op)
	}
}

// buildTravel assembles the GTravel chain from the flag values.
func buildTravel(vIDs, vLabel, eSpec, vaSpec string, rtnStep int) (*query.Travel, error) {
	var t *query.Travel
	switch {
	case vIDs != "":
		var ids []model.VertexID
		for _, f := range strings.Split(vIDs, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -v id %q: %w", f, err)
			}
			ids = append(ids, model.VertexID(n))
		}
		t = query.V(ids...)
	case vLabel != "":
		t = query.VLabel(vLabel)
	default:
		t = query.V()
	}
	if rtnStep == 0 {
		t = t.Rtn()
	}
	step := 0
	if eSpec != "" {
		for _, hop := range strings.Split(eSpec, ",") {
			label, filt, err := parseHop(strings.TrimSpace(hop))
			if err != nil {
				return nil, err
			}
			t = t.E(label)
			step++
			if filt != nil {
				t = t.Ea(filt.key, property.RANGE, filt.lo, filt.hi)
			}
			if rtnStep == step {
				t = t.Rtn()
			}
		}
	}
	if vaSpec != "" {
		k, v, ok := strings.Cut(vaSpec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -va %q, want key=value", vaSpec)
		}
		t = t.Va(k, property.EQ, v)
	}
	return t, nil
}

type rangeFilter struct {
	key    string
	lo, hi int
}

// parseHop parses "label" or "label[key:lo..hi]".
func parseHop(hop string) (string, *rangeFilter, error) {
	open := strings.IndexByte(hop, '[')
	if open < 0 {
		return hop, nil, nil
	}
	if !strings.HasSuffix(hop, "]") {
		return "", nil, fmt.Errorf("bad hop %q, want label[key:lo..hi]", hop)
	}
	label := hop[:open]
	body := hop[open+1 : len(hop)-1]
	key, rng, ok := strings.Cut(body, ":")
	if !ok {
		return "", nil, fmt.Errorf("bad hop filter %q, want key:lo..hi", body)
	}
	loS, hiS, ok := strings.Cut(rng, "..")
	if !ok {
		return "", nil, fmt.Errorf("bad hop range %q, want lo..hi", rng)
	}
	lo, err := strconv.Atoi(loS)
	if err != nil {
		return "", nil, err
	}
	hi, err := strconv.Atoi(hiS)
	if err != nil {
		return "", nil, err
	}
	return label, &rangeFilter{key: key, lo: lo, hi: hi}, nil
}
