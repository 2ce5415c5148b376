// Package route maps partitions to replica sets. It replaces the static
// partition-index-equals-server-index identity the cluster booted with: a
// Table assigns every partition a primary plus follower servers under a
// monotonically increasing per-partition epoch, and a View publishes the
// current table to the traversal engines through the partition.Partitioner
// interface, so dispatch routing follows failover and shard handoff without
// the engines knowing either happened.
//
// Epochs are the fencing token of the replication protocol: any node can
// propose a new assignment for a partition by bumping its epoch, and Merge
// resolves concurrent tables per partition with higher-epoch-wins, which
// makes route gossip idempotent and order-insensitive. A deposed primary
// still operating under an old epoch is rejected by its followers (they
// know a higher epoch) rather than by any central authority.
package route

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"graphtrek/internal/model"
)

// Assignment is one partition's replica set under one epoch.
type Assignment struct {
	// Epoch fences stale primaries; it only ever increases for a partition.
	Epoch uint64
	// Primary is the server traversal dispatch and quorum writes route to.
	Primary int32
	// Followers are the replica servers the primary ships mutations to, in
	// promotion-preference order.
	Followers []int32
}

// Replicas returns the full replica set, primary first.
func (a Assignment) Replicas() []int32 {
	out := make([]int32, 0, 1+len(a.Followers))
	out = append(out, a.Primary)
	return append(out, a.Followers...)
}

// HasReplica reports whether server s is in the replica set.
func (a Assignment) HasReplica(s int32) bool {
	if a.Primary == s {
		return true
	}
	for _, f := range a.Followers {
		if f == s {
			return true
		}
	}
	return false
}

// Quorum is the ack count (primary included) that makes a write durable:
// a majority of the replica set.
func (a Assignment) Quorum() int { return (1+len(a.Followers))/2 + 1 }

// Table is an epoch-stamped partition→replica-set map. Tables are
// immutable once published through a View; derive changed copies with
// Clone.
type Table struct {
	// Servers is the backend server count (transport ids 0..Servers-1).
	Servers int
	// Parts is indexed by partition id; len(Parts) is the partition count,
	// which never changes over a cluster's lifetime (only assignments move).
	Parts []Assignment
}

// Identity builds the boot table that reproduces the seed cluster's static
// layout: partition i's primary is server i, with replicas-1 followers on
// the next servers round-robin. With replicas == 1 the table is exactly the
// partition.NewHash(servers) mapping and replication is effectively off.
func Identity(servers, replicas int) *Table {
	if servers <= 0 {
		panic("route: server count must be positive")
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > servers {
		replicas = servers
	}
	t := &Table{Servers: servers, Parts: make([]Assignment, servers)}
	for p := range t.Parts {
		a := Assignment{Epoch: 1, Primary: int32(p)}
		for r := 1; r < replicas; r++ {
			a.Followers = append(a.Followers, int32((p+r)%servers))
		}
		t.Parts[p] = a
	}
	return t
}

// Partition maps a vertex to its partition id with the same splitmix64
// finalizer partition.Hash uses, so the identity table reproduces the seed
// cluster's vertex placement exactly.
func (t *Table) Partition(id model.VertexID) int {
	if id.Interned() {
		// Interned ids embed the partition chosen at intern time; see
		// model.InternedID. No dictionary lookup on the routing path.
		return id.InternedPartition() % len(t.Parts)
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(t.Parts)))
}

// Clone deep-copies the table so a new assignment can be installed without
// mutating the published one.
func (t *Table) Clone() *Table {
	out := &Table{Servers: t.Servers, Parts: make([]Assignment, len(t.Parts))}
	for i, a := range t.Parts {
		a.Followers = append([]int32(nil), a.Followers...)
		out.Parts[i] = a
	}
	return out
}

// Merge folds another table into this one per partition, higher epoch wins;
// equal epochs keep the local assignment (proposals are made under fresh
// epochs, so an equal-epoch difference never occurs in a correct cluster).
// It reports whether any assignment changed.
func (t *Table) Merge(o *Table) bool {
	if o == nil || len(o.Parts) != len(t.Parts) {
		return false
	}
	changed := false
	for p, a := range o.Parts {
		if a.Epoch > t.Parts[p].Epoch {
			a.Followers = append([]int32(nil), a.Followers...)
			t.Parts[p] = a
			changed = true
		}
	}
	return changed
}

// Encode serializes the table for route gossip (wire.Message Blob).
func (t *Table) Encode() []byte {
	b := binary.AppendUvarint(nil, uint64(t.Servers))
	b = binary.AppendUvarint(b, uint64(len(t.Parts)))
	for _, a := range t.Parts {
		b = binary.AppendUvarint(b, a.Epoch)
		b = binary.AppendUvarint(b, uint64(a.Primary))
		b = binary.AppendUvarint(b, uint64(len(a.Followers)))
		for _, f := range a.Followers {
			b = binary.AppendUvarint(b, uint64(f))
		}
	}
	return b
}

// DecodeTable parses an Encode payload. The blob arrives by gossip and a
// merged table is republished cluster-wide, so it is checked as outside
// input: varints must be minimal (decode then Encode is byte-identical) and
// every replica id must name a server in [0, Servers).
func DecodeTable(b []byte) (*Table, error) {
	u := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 || (n > 1 && b[n-1] == 0) {
			return 0, fmt.Errorf("route: truncated or non-minimal varint")
		}
		b = b[n:]
		return v, nil
	}
	servers, err := u()
	if err != nil {
		return nil, err
	}
	if servers > math.MaxInt32 {
		return nil, fmt.Errorf("route: declared %d servers", servers)
	}
	replica := func() (int32, error) {
		id, err := u()
		if err == nil && id >= servers {
			err = fmt.Errorf("route: replica id %d outside [0, %d)", id, servers)
		}
		return int32(id), err
	}
	nparts, err := u()
	if err != nil {
		return nil, err
	}
	// Every assignment takes at least 3 bytes, which bounds allocation
	// before make (the decoder sits behind a network trust boundary).
	if nparts > uint64(len(b))/3+1 {
		return nil, fmt.Errorf("route: declared %d partitions in %d bytes", nparts, len(b))
	}
	t := &Table{Servers: int(servers), Parts: make([]Assignment, nparts)}
	for p := range t.Parts {
		var a Assignment
		if a.Epoch, err = u(); err != nil {
			return nil, err
		}
		if a.Primary, err = replica(); err != nil {
			return nil, err
		}
		nf, err := u()
		if err != nil {
			return nil, err
		}
		if nf > uint64(len(b))+1 {
			return nil, fmt.Errorf("route: declared %d followers in %d bytes", nf, len(b))
		}
		for i := uint64(0); i < nf; i++ {
			f, err := replica()
			if err != nil {
				return nil, err
			}
			a.Followers = append(a.Followers, f)
		}
		t.Parts[p] = a
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("route: %d trailing bytes", len(b))
	}
	return t, nil
}

// View is the atomically swappable published table. It implements
// partition.Partitioner — Owner routes a vertex to its partition's current
// primary — so the traversal engines re-route through failover and handoff
// without code changes at the dispatch sites.
type View struct {
	t atomic.Pointer[Table]
}

// NewView publishes an initial table.
func NewView(t *Table) *View {
	v := &View{}
	v.t.Store(t)
	return v
}

// Table returns the current table. Treat it as immutable; install changes
// with Update or Propose.
func (v *View) Table() *Table { return v.t.Load() }

// Owner implements partition.Partitioner: the current primary of the
// vertex's partition.
func (v *View) Owner(id model.VertexID) int {
	t := v.t.Load()
	return int(t.Parts[t.Partition(id)].Primary)
}

// N implements partition.Partitioner: the backend server count.
func (v *View) N() int { return v.t.Load().Servers }

// Partition returns the vertex's partition id under the current table.
func (v *View) Partition(id model.VertexID) int { return v.t.Load().Partition(id) }

// Assignment returns partition p's current assignment.
func (v *View) Assignment(p int) Assignment { return v.t.Load().Parts[p] }

// Parts returns the partition count.
func (v *View) Parts() int { return len(v.t.Load().Parts) }

// Update merges an incoming table into the view (copy-on-write swap) and
// reports whether anything changed. Lost CAS races retry, so concurrent
// gossip deliveries all land.
func (v *View) Update(o *Table) bool {
	for {
		cur := v.t.Load()
		next := cur.Clone()
		if !next.Merge(o) {
			return false
		}
		if v.t.CompareAndSwap(cur, next) {
			return true
		}
	}
}

// Propose installs a new assignment for one partition if epoch still
// advances past the current one, returning the table that now holds it (or
// nil if a concurrent proposal with an equal or higher epoch won).
func (v *View) Propose(p int, a Assignment) *Table {
	for {
		cur := v.t.Load()
		if p < 0 || p >= len(cur.Parts) || a.Epoch <= cur.Parts[p].Epoch {
			return nil
		}
		next := cur.Clone()
		next.Parts[p] = a
		if v.t.CompareAndSwap(cur, next) {
			return next
		}
	}
}
