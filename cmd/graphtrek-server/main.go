// Command graphtrek-server runs one GraphTrek backend server over TCP: the
// traversal engine colocated with one persistent graph partition. The
// cluster membership is a static address list; node ids 0..servers-1 are
// backends and higher slots are clients (gtq).
//
// A three-server deployment on one machine:
//
//	graphtrek-gen   -out /data/g -servers 3 -kind meta -vertices 100000
//	graphtrek-server -id 0 -servers 3 -addrs :7000,:7001,:7002,:7003 -data /data/g/server-00 &
//	graphtrek-server -id 1 -servers 3 -addrs :7000,:7001,:7002,:7003 -data /data/g/server-01 &
//	graphtrek-server -id 2 -servers 3 -addrs :7000,:7001,:7002,:7003 -data /data/g/server-02 &
//	gtq -self 3 -servers 3 -addrs :7000,:7001,:7002,:7003 -vlabel User -e run
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"graphtrek/internal/core"
	"graphtrek/internal/gstore"
	"graphtrek/internal/kv"
	"graphtrek/internal/obs"
	"graphtrek/internal/partition"
	"graphtrek/internal/route"
	"graphtrek/internal/rpc"
	"graphtrek/internal/simio"
)

func main() {
	id := flag.Int("id", 0, "this server's node id")
	servers := flag.Int("servers", 1, "number of backend servers in the cluster")
	addrs := flag.String("addrs", "", "comma-separated node addresses, index = node id (backends first, then client slots)")
	data := flag.String("data", "", "persistent graph partition directory (required)")
	workers := flag.Int("workers", 4, "shared executor pool size: worker goroutines per server, across all concurrent traversals")
	maxQueue := flag.Int("max-queue", 0, "executor admission limit: max buffered requests across all traversals (0 = unbounded)")
	diskService := flag.Duration("disk-service", 0, "simulated per-access disk latency (0 = real storage only)")
	timeout := flag.Duration("travel-timeout", 60*time.Second, "coordinator inactivity timeout")
	heartbeat := flag.Duration("heartbeat", time.Second, "backend heartbeat interval (0 disables the failure detector)")
	suspectAfter := flag.Duration("suspect-after", 0, "silence before a peer is suspected dead (0 = 3x heartbeat)")
	sendTimeout := flag.Duration("send-timeout", 2*time.Second, "bounded wait on a full peer outbox before failing the send")
	obsAddr := flag.String("obs-addr", "", "observability HTTP listen address serving /metrics, /debug/pprof, /traces, /events, /status and /readyz (empty disables)")
	traceCap := flag.Int("trace-cap", 0, "execution-trace ring capacity (0 = default 8192, negative disables tracing)")
	slowTravel := flag.Duration("slow-travel", 0, "capture the full causal trace DAG of traversals at least this slow (served at /traces/slow; 0 disables)")
	indexKeys := flag.String("index", "", "comma-separated property keys to secondary-index at boot (step-0 filters on them seed via the index)")
	cacheBytes := flag.Int64("cache-bytes", 0, "read-cache budget in bytes for decoded vertices and adjacency lists (0 disables)")
	replicas := flag.Int("replicas", 2, "replicas per partition (primary + followers); 1 disables replication")
	join := flag.String("join", "", "comma-separated partition ids to join via online shard handoff after startup (replicated clusters only)")
	flag.Parse()

	if *data == "" || *addrs == "" {
		flag.Usage()
		os.Exit(2)
	}
	addrList := strings.Split(*addrs, ",")
	if *id < 0 || *id >= *servers || *servers > len(addrList) {
		fmt.Fprintln(os.Stderr, "graphtrek-server: id/servers/addrs mismatch")
		os.Exit(2)
	}

	diskStore, err := gstore.Open(*data, kv.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphtrek-server:", err)
		os.Exit(1)
	}
	var store gstore.Graph = diskStore
	if *cacheBytes > 0 {
		store = gstore.NewCachedGraph(store, *cacheBytes)
	}
	defer store.Close()
	if *indexKeys != "" {
		// A failed backfill is a loud startup error rather than a silent
		// scan fallback.
		for _, key := range strings.Split(*indexKeys, ",") {
			if key = strings.TrimSpace(key); key == "" {
				continue
			}
			if err := store.EnableIndex(key); err != nil {
				fmt.Fprintln(os.Stderr, "graphtrek-server: -index:", err)
				os.Exit(1)
			}
			fmt.Printf("graphtrek-server: property index enabled on %q\n", key)
		}
	}

	// With -replicas >= 2 the partition map is an epoch-stamped route view
	// (identical to the static hash layout at boot) instead of the bare
	// hash partitioner: quorum writes, epoch-fenced failover and shard
	// handoff activate, and gossip keeps the cluster's views converged.
	var part partition.Partitioner = partition.NewHash(*servers)
	var view *route.View
	if *replicas >= 2 {
		view = route.NewView(route.Identity(*servers, *replicas))
		part = view
	}
	srv := core.NewServer(core.Config{
		ID:                *id,
		Store:             store,
		Part:              part,
		Route:             view,
		ReplicationFactor: *replicas,
		Disk:              simio.NewDisk(*diskService, 1),
		Workers:           *workers,
		MaxQueueDepth:     *maxQueue,
		TravelTimeout:     *timeout,
		HeartbeatInterval: *heartbeat,
		SuspectAfter:      *suspectAfter,
		TraceCap:          *traceCap,
		SlowTravelNs:      int64(*slowTravel),
	})
	tr, err := rpc.NewTCPWithOptions(*id, addrList, srv.Handle, rpc.TCPOptions{
		SendTimeout:   *sendTimeout,
		OnReconnect:   srv.ObserveReconnect,
		OnSendFailure: srv.ObserveSendFailure,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphtrek-server:", err)
		os.Exit(1)
	}
	srv.Bind(tr)
	fmt.Printf("graphtrek-server: node %d/%d listening on %s, partition %s\n",
		*id, *servers, tr.Addr(), *data)
	if *join != "" {
		if view == nil {
			fmt.Fprintln(os.Stderr, "graphtrek-server: -join requires -replicas >= 2")
			os.Exit(2)
		}
		// Let Bind's boot route announcement and its anti-entropy replies
		// land first: a restarted ex-replica boots with a stale table that
		// still lists it as a member, and joining off that table would
		// no-op. One round trip fences and demotes us; a second is slack.
		time.Sleep(time.Second)
		for _, ps := range strings.Split(*join, ",") {
			var p int
			if _, err := fmt.Sscanf(strings.TrimSpace(ps), "%d", &p); err != nil {
				fmt.Fprintln(os.Stderr, "graphtrek-server: -join:", err)
				os.Exit(2)
			}
			if err := srv.JoinPartition(p); err != nil {
				fmt.Fprintln(os.Stderr, "graphtrek-server: -join:", err)
				os.Exit(1)
			}
			fmt.Printf("graphtrek-server: joining partition %d (snapshot + live tail streaming)\n", p)
			deadline := time.Now().Add(30 * time.Second)
			for !view.Assignment(p).HasReplica(int32(*id)) {
				if time.Now().After(deadline) {
					fmt.Fprintf(os.Stderr, "graphtrek-server: -join: partition %d not published as ours after 30s\n", p)
					os.Exit(1)
				}
				time.Sleep(100 * time.Millisecond)
			}
			fmt.Printf("graphtrek-server: joined partition %d\n", p)
		}
	}

	var obsSrv *http.Server
	if *obsAddr != "" {
		obsSrv = obs.ListenAndServe(*obsAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "graphtrek-server: obs endpoint:", err)
		}, srv)
		fmt.Printf("graphtrek-server: observability endpoint on %s (/metrics, /debug/pprof, /traces, /traces/dag, /traces/chrome, /traces/slow, /events, /status, /healthz, /readyz)\n", *obsAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("graphtrek-server: shutting down")
	if obsSrv != nil {
		obsSrv.Close()
	}
	srv.Close()
	tr.Close()
}
