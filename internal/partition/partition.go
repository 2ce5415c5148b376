// Package partition maps vertices to owner servers. GraphTrek, like most
// graph databases, uses edge-cut partitioning (§VI): a vertex and all of its
// out-edges live on one server chosen by a hash of the vertex id. Balanced
// places vertices by degree instead (§VIII's load balancing).
package partition

import (
	"sort"

	"graphtrek/internal/model"
)

// Partitioner assigns every vertex to one of N servers.
type Partitioner interface {
	// Owner returns the server index in [0, N) that stores the vertex and
	// its out-edges.
	Owner(id model.VertexID) int
	// N returns the number of servers.
	N() int
}

// Hash is the default edge-cut partitioner: a 64-bit mix of the vertex id
// modulo the server count. The mix (splitmix64 finalizer) breaks up the
// sequential ids the generators assign, spreading hot vertices uniformly.
type Hash struct {
	n int
}

// NewHash returns a hash partitioner over n servers; n must be positive.
func NewHash(n int) Hash {
	if n <= 0 {
		panic("partition: server count must be positive")
	}
	return Hash{n: n}
}

// Owner implements Partitioner.
func (h Hash) Owner(id model.VertexID) int {
	if id.Interned() {
		// Interned ids embed the partition the dictionary chose at intern
		// time (by hashing the original name through this same partitioner),
		// so routing needs no dictionary lookup. The modulo only matters if
		// the cluster was resized after interning.
		return id.InternedPartition() % h.n
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(h.n))
}

// N implements Partitioner.
func (h Hash) N() int { return h.n }

// Balanced is a degree-aware edge-cut partitioner — the "automatic load
// balancing" the paper lists as future work (§VIII). Built from the
// loader's out-degree census, it places vertices greedily: heaviest first,
// each onto the currently lightest server, where a vertex's weight is
// 1 + its out-degree (one storage row plus its edge list — the I/O a
// traversal step pays). On power-law graphs this splits the hub load that
// hash partitioning concentrates by chance.
type Balanced struct {
	n      int
	owner  map[model.VertexID]int
	fallba Hash // vertices outside the census fall back to hashing
}

// NewBalanced builds a balanced partitioner over n servers from a degree
// census (vertex -> out-degree). Vertices absent from the census are
// placed by hash.
func NewBalanced(n int, degrees map[model.VertexID]int) *Balanced {
	if n <= 0 {
		panic("partition: server count must be positive")
	}
	b := &Balanced{
		n:      n,
		owner:  make(map[model.VertexID]int, len(degrees)),
		fallba: NewHash(n),
	}
	type vd struct {
		id  model.VertexID
		deg int
	}
	order := make([]vd, 0, len(degrees))
	for id, deg := range degrees {
		order = append(order, vd{id, deg})
	}
	// Heaviest first; ties by id for determinism.
	sort.Slice(order, func(i, j int) bool {
		if order[i].deg != order[j].deg {
			return order[i].deg > order[j].deg
		}
		return order[i].id < order[j].id
	})
	loads := make([]int64, n)
	for _, v := range order {
		lightest := 0
		for s := 1; s < n; s++ {
			if loads[s] < loads[lightest] {
				lightest = s
			}
		}
		b.owner[v.id] = lightest
		loads[lightest] += int64(1 + v.deg)
	}
	return b
}

// Owner implements Partitioner.
func (b *Balanced) Owner(id model.VertexID) int {
	if s, ok := b.owner[id]; ok {
		return s
	}
	return b.fallba.Owner(id)
}

// N implements Partitioner.
func (b *Balanced) N() int { return b.n }
