// Package status defines the JSON document one backend server publishes
// about its live replication and engine state: per-partition epoch, role,
// replica set and sequence watermarks, plus executor queue and read-cache
// gauges. It is pure data — core fills it in, internal/obs serves it at
// /status, wire.KindIntrospectReq pulls it cluster-wide, and `gtq -status`
// renders the merged table. Keeping the types here (not in core) lets the
// HTTP layer and the CLI share them without importing the engine.
package status

// Partition is one partition's replication state as seen by the
// reporting server. Sequence numbers are meaningful within Epoch only.
type Partition struct {
	// Part is the partition id.
	Part int `json:"part"`
	// Epoch is the fencing epoch of the reporter's role.
	Epoch uint64 `json:"epoch"`
	// Primary is the partition's primary server in the reporter's route
	// view.
	Primary int `json:"primary"`
	// Followers lists the follower replicas in the reporter's route view.
	Followers []int `json:"followers,omitempty"`
	// Role is the reporter's own role: "primary" or "follower".
	Role string `json:"role"`
	// AppliedSeq is the last mutation batch applied to the local store.
	AppliedSeq uint64 `json:"applied_seq"`
	// AckedSeq is the highest sequence every follower has acknowledged
	// (primary only; the quorum floor).
	AckedSeq uint64 `json:"acked_seq"`
	// CommitSeq is the quorum commit watermark (primary only).
	CommitSeq uint64 `json:"commit_seq"`
	// LagEntries counts applied-but-uncommitted entries (applied_seq -
	// commit_seq on the reporter).
	LagEntries uint64 `json:"lag_entries"`
	// LagBytes is the primary's shipped-minus-acked byte lag over its
	// followers for this partition.
	LagBytes int64 `json:"lag_bytes"`
	// LagAgeNs is the age of the oldest uncommitted entry, nanoseconds
	// (0 when fully committed).
	LagAgeNs int64 `json:"lag_age_ns"`
	// Joining marks a snapshot replay in flight on the reporter (it is
	// receiving this partition via shard handoff).
	Joining bool `json:"joining,omitempty"`
	// HandoffsInFlight counts snapshot streams this primary is currently
	// sending for the partition.
	HandoffsInFlight int `json:"handoffs_in_flight,omitempty"`
}

// CacheStats mirrors the storage layer's read-cache counters.
type CacheStats struct {
	VtxHits   int64 `json:"vtx_hits"`
	VtxMisses int64 `json:"vtx_misses"`
	AdjHits   int64 `json:"adj_hits"`
	AdjMisses int64 `json:"adj_misses"`
}

// Server is one backend's full status document.
type Server struct {
	// Server is the reporting backend's node id.
	Server int `json:"server"`
	// QueueLen is the shared executor's current buffered item count.
	QueueLen int `json:"queue_len"`
	// QueueHighWater is the executor queue's depth high-water mark.
	QueueHighWater int `json:"queue_high_water"`
	// Cache is the read-cache counter overlay.
	Cache CacheStats `json:"cache"`
	// Partitions lists replication state for every partition the server
	// holds a role in, ascending by partition id. Empty on unreplicated
	// clusters.
	Partitions []Partition `json:"partitions,omitempty"`
	// Ready mirrors the /readyz verdict at snapshot time.
	Ready bool `json:"ready"`
	// NotReadyReasons explains a false Ready, one reason per condition.
	NotReadyReasons []string `json:"not_ready_reasons,omitempty"`
}

// Readiness is the /readyz JSON body.
type Readiness struct {
	// Ready is true when every owned partition can reach quorum and no
	// snapshot replay is in flight.
	Ready bool `json:"ready"`
	// Reasons lists what blocks readiness when Ready is false.
	Reasons []string `json:"reasons,omitempty"`
}
