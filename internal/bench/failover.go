package bench

import (
	"fmt"
	"io"
	"time"

	"graphtrek"
	"graphtrek/internal/core"
	"graphtrek/internal/events"
	"graphtrek/internal/gstore"
	"graphtrek/internal/property"
)

// Failover gates the replication subsystem end to end: quorum writes on a
// replicated cluster, a primary kill, follower promotion under a fresh
// epoch, zero lost acknowledged writes, traversal equivalence across the
// failover, and an online shard handoff onto a live server. Every gate is
// a pass/fail check in the -json report, so CI fails if any invariant
// regresses. Measurements (load throughput, promotion latency, handoff
// duration) are recorded as rows for trend tracking.
func Failover(s Scale, w io.Writer, rep *ExperimentResult) error {
	const (
		servers      = 3
		rf           = 2
		users        = 96
		filesPerUser = 3
	)
	hb := 50 * time.Millisecond
	suspectAfter := 3 * hb
	fmt.Fprintf(w, "FAILOVER — %d servers, RF=%d, heartbeat %v: kill a primary, verify promotion, durability and handoff (scale=%s)\n",
		servers, rf, hb, s.Name)
	c, err := graphtrek.NewCluster(graphtrek.Options{
		Servers:           servers,
		ReplicationFactor: rf,
		HeartbeatInterval: hb,
		SuspectAfter:      suspectAfter,
		DiskService:       s.DiskService,
		DiskParallelism:   s.DiskParallelism,
		TravelTimeout:     time.Minute,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// Load the workload through the quorum write path itself: users 1..N,
	// each running filesPerUser files. Every acknowledged mutation is the
	// durability contract the kill below must not break.
	var muts []gstore.Mutation
	var allIDs []graphtrek.VertexID
	nextFile := graphtrek.VertexID(10_000)
	for u := 1; u <= users; u++ {
		id := graphtrek.VertexID(u)
		allIDs = append(allIDs, id)
		muts = append(muts, gstore.Mutation{Op: gstore.OpPutVertex, Vertex: graphtrek.Vertex{
			ID: id, Label: "User", Props: property.Map{"u": property.Int(int64(u))}}})
		for f := 0; f < filesPerUser; f++ {
			fid := nextFile
			nextFile++
			allIDs = append(allIDs, fid)
			muts = append(muts, gstore.Mutation{Op: gstore.OpPutVertex, Vertex: graphtrek.Vertex{
				ID: fid, Label: "File"}})
			muts = append(muts, gstore.Mutation{Op: gstore.OpPutEdge, Edge: graphtrek.Edge{
				Src: id, Dst: fid, Label: "run"}})
		}
	}
	loadStart := time.Now()
	for i := 0; i < len(muts); i += 128 {
		end := i + 128
		if end > len(muts) {
			end = len(muts)
		}
		if err := c.Write(muts[i:end], core.WriteOptions{}); err != nil {
			return fmt.Errorf("bench: failover: quorum load: %w", err)
		}
	}
	loadDur := time.Since(loadStart)
	fmt.Fprintf(w, "quorum-acknowledged %d mutations in %s\n", len(muts), fmtDur(loadDur))
	rep.AddRow(Row{Series: "quorum-load", Servers: servers, ElapsedNs: int64(loadDur), Results: len(muts)})

	plan, err := graphtrek.VLabel("User").E("run").Compile()
	if err != nil {
		return err
	}
	baseline, err := c.RunPlan(plan, core.SubmitOptions{Mode: core.ModeGraphTrek, Coordinator: -1, Timeout: time.Minute})
	if err != nil {
		return fmt.Errorf("bench: failover: baseline traversal: %w", err)
	}
	rep.AddCheck("baseline-results", len(baseline) == users*filesPerUser,
		"baseline traversal returned %d results, want %d", len(baseline), users*filesPerUser)

	// Kill the primary of the partition owning user 1. Its sole follower
	// holds every acknowledged write (quorum 2 of 2), so promotion must
	// lose nothing.
	view := c.ClientRouteView()
	p0 := view.Partition(1)
	victim := int(view.Assignment(p0).Primary)
	coord := 0
	for coord == victim {
		coord++
	}
	killAt := time.Now()
	c.KillServer(victim)
	var promoDur time.Duration
	for deadline := time.Now().Add(15 * time.Second); ; {
		var promos int64
		for i := 0; i < servers; i++ {
			if i != victim {
				promos += c.Server(i).Metrics().Promotions
			}
		}
		if promos >= 1 {
			promoDur = time.Since(killAt)
			break
		}
		if time.Now().After(deadline) {
			rep.AddCheck("promotion", false, "no follower promoted within 15s of killing server %d", victim)
			return fmt.Errorf("bench: failover: no promotion within 15s of killing server %d", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	rep.AddCheck("promotion", true, "")
	// Detection costs up to SuspectAfter plus a detector scan; the rest is
	// promotion and gossip. The wide margin absorbs CI scheduling noise.
	budget := suspectAfter + 10*hb
	rep.AddCheck("promotion-latency", promoDur <= budget,
		"promotion took %s, budget %s", fmtDur(promoDur), fmtDur(budget))
	rep.AddRow(Row{Series: "promotion", Servers: servers, ElapsedNs: int64(promoDur)})
	fmt.Fprintf(w, "killed server %d (primary of partition %d); promotion after %s (budget %s)\n",
		victim, p0, fmtDur(promoDur), fmtDur(budget))

	// Wait for the client's route view to converge off the dead primary,
	// then check durability: every acknowledged vertex must be on its
	// partition's current primary.
	for deadline := time.Now().Add(10 * time.Second); ; {
		stale := false
		for p := 0; p < view.Parts(); p++ {
			stale = stale || int(view.Assignment(p).Primary) == victim
		}
		if !stale {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: failover: client route view still names server %d as a primary after 10s", victim)
		}
		time.Sleep(2 * time.Millisecond)
	}
	lost := 0
	for _, id := range allIDs {
		prim := int(view.Assignment(view.Partition(id)).Primary)
		if _, ok, err := c.Store(prim).GetVertex(id); err != nil || !ok {
			lost++
		}
	}
	rep.AddCheck("no-lost-acked-writes", lost == 0,
		"%d of %d acknowledged vertices missing from their current primaries", lost, len(allIDs))

	// The same traversal must return the same result set once routing has
	// converged; transient windows (suspicion raised, promotion pending)
	// surface as retryable errors, never as silently truncated results.
	var after []graphtrek.VertexID
	for deadline := time.Now().Add(15 * time.Second); ; {
		after, err = c.RunPlan(plan, core.SubmitOptions{
			Mode: core.ModeGraphTrek, Coordinator: coord, Timeout: 10 * time.Second, Retries: 2})
		if err == nil {
			break
		}
		if !core.Retryable(err) || time.Now().After(deadline) {
			return fmt.Errorf("bench: failover: post-failover traversal: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	equal := len(after) == len(baseline)
	for i := 0; equal && i < len(after); i++ {
		equal = after[i] == baseline[i]
	}
	rep.AddCheck("failover-equivalence", equal,
		"%d results after failover vs %d before", len(after), len(baseline))
	fmt.Fprintf(w, "post-failover traversal: %d results (baseline %d)\n", len(after), len(baseline))

	// Quorum writes must resume against the promoted primary.
	marker := graphtrek.VertexID(1_000_000)
	for view.Partition(marker) != p0 {
		marker++
	}
	if err := c.Write([]gstore.Mutation{{Op: gstore.OpPutVertex, Vertex: graphtrek.Vertex{
		ID: marker, Label: "Marker"}}}, core.WriteOptions{Timeout: 10 * time.Second}); err != nil {
		return fmt.Errorf("bench: failover: post-failover write: %w", err)
	}
	newPrim := int(view.Assignment(p0).Primary)
	_, onNew, err := c.Store(newPrim).GetVertex(marker)
	rep.AddCheck("post-failover-write", err == nil && onNew,
		"marker vertex %d on promoted primary %d: %v", marker, newPrim, onNew)

	// The merged cluster event journal — pulled over the wire from every
	// surviving server, exactly as gtq -events does — must show the
	// promotion of partition p0 by the new primary, fenced at the epoch the
	// route view now publishes.
	epoch := view.Assignment(p0).Epoch
	evs, err := c.Client().ClusterEvents(10 * time.Second)
	if err != nil {
		return fmt.Errorf("bench: failover: cluster events: %w", err)
	}
	promoSeen := false
	for _, e := range evs {
		if e.Type == events.Promotion && e.Part == p0 && e.Server == newPrim && e.Epoch == epoch {
			promoSeen = true
		}
	}
	rep.AddCheck("promotion-event", promoSeen,
		"promotion of partition %d by server %d at epoch %d in the merged journal: seen=%v, %d events",
		p0, newPrim, epoch, promoSeen, len(evs))
	fmt.Fprintf(w, "merged event journal: %d events; promotion of partition %d at epoch %d recorded: %v\n",
		len(evs), p0, epoch, promoSeen)

	// The new primary's status document — the gtq -status view — must agree:
	// it primaries p0 at that epoch with a committed, lag-free log covering
	// the post-failover write.
	sts, err := c.Client().ClusterStatus(10 * time.Second)
	if err != nil {
		return fmt.Errorf("bench: failover: cluster status: %w", err)
	}
	statusOK, statusDetail := false, fmt.Sprintf("no status document from server %d", newPrim)
	for _, st := range sts {
		if st.Server != newPrim {
			continue
		}
		statusDetail = fmt.Sprintf("server %d reports no row for partition %d", newPrim, p0)
		for _, p := range st.Partitions {
			if p.Part != p0 {
				continue
			}
			statusOK = p.Role == "primary" && p.Epoch == epoch && p.CommitSeq >= 1 && p.AppliedSeq >= p.CommitSeq
			statusDetail = fmt.Sprintf("partition %d on server %d: role %s epoch %d applied %d commit %d lag %d",
				p0, newPrim, p.Role, p.Epoch, p.AppliedSeq, p.CommitSeq, p.LagEntries)
		}
	}
	rep.AddCheck("status-new-primary", statusOK, "%s", statusDetail)
	fmt.Fprintf(w, "status: %s\n", statusDetail)

	// Online shard handoff: stream a partition onto a live server that
	// does not replicate it, restoring the replica count the kill cost us.
	joiner, joinPart := -1, -1
	for p := 0; p < view.Parts() && joiner < 0; p++ {
		a := view.Assignment(p)
		if int(a.Primary) == victim {
			continue
		}
		for srv := 0; srv < servers; srv++ {
			if srv != victim && !a.HasReplica(int32(srv)) {
				joiner, joinPart = srv, p
				break
			}
		}
	}
	if joiner < 0 {
		rep.AddCheck("handoff", false, "no live (server, partition) pair left to hand a shard to")
		return fmt.Errorf("bench: failover: no handoff candidate")
	}
	handStart := time.Now()
	if err := c.JoinPartition(joiner, joinPart); err != nil {
		return fmt.Errorf("bench: failover: join partition %d on server %d: %w", joinPart, joiner, err)
	}
	for deadline := time.Now().Add(15 * time.Second); ; {
		if view.Assignment(joinPart).HasReplica(int32(joiner)) {
			break
		}
		if time.Now().After(deadline) {
			rep.AddCheck("handoff", false,
				"server %d never published as a replica of partition %d", joiner, joinPart)
			return fmt.Errorf("bench: failover: handoff of partition %d to server %d did not converge", joinPart, joiner)
		}
		time.Sleep(2 * time.Millisecond)
	}
	handDur := time.Since(handStart)
	rep.AddCheck("handoff", true, "")
	handPrim := int(view.Assignment(joinPart).Primary)
	handBytes := c.Server(handPrim).Metrics().HandoffBytes
	rep.AddCheck("handoff-bytes", handBytes > 0,
		"primary %d reports %d snapshot bytes streamed", handPrim, handBytes)
	rep.AddRow(Row{Series: "handoff", Servers: servers, ElapsedNs: int64(handDur), Results: int(handBytes)})
	fmt.Fprintf(w, "handed partition %d to server %d in %s (%d snapshot bytes)\n",
		joinPart, joiner, fmtDur(handDur), handBytes)

	// The joiner is now in the write quorum: a fresh write to that
	// partition must land on it before the client sees the ack.
	marker2 := graphtrek.VertexID(2_000_000)
	for view.Partition(marker2) != joinPart {
		marker2++
	}
	if err := c.Write([]gstore.Mutation{{Op: gstore.OpPutVertex, Vertex: graphtrek.Vertex{
		ID: marker2, Label: "Marker"}}}, core.WriteOptions{Timeout: 10 * time.Second}); err != nil {
		return fmt.Errorf("bench: failover: post-handoff write: %w", err)
	}
	_, onJoiner, err := c.Store(joiner).GetVertex(marker2)
	rep.AddCheck("post-handoff-write", err == nil && onJoiner,
		"marker vertex %d on joiner %d after a quorum ack: %v", marker2, joiner, onJoiner)
	return nil
}
