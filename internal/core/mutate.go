package core

import (
	"errors"
	"fmt"
	"sync"

	"graphtrek/internal/gstore"
	"graphtrek/internal/model"
	"graphtrek/internal/property"
)

// This file is the client side of the streaming mutation pipeline
// (DESIGN.md §14): Mutate turns name-addressed add/update/delete operations
// into interned-id mutation batches on the quorum write path, and BulkLoad
// saturates every partition primary concurrently for initial ingest.

// lookup serves the read-only half of the name service — WriteModeResolve
// (names to ids, 0 when unknown) and WriteModeNames (ids to names, "" when
// unknown). The dictionary is replicated state, so any server holding the
// partition answers, followers included, with or without replication.
func lookup[K, V any](s *Server, blob []byte, what string, dec func([]byte) ([]K, error),
	get func(gstore.Interner, K) (V, bool, error), enc func([]V) []byte) ([]byte, error) {
	keys, err := dec(blob)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	vals := make([]V, len(keys))
	for i, k := range keys {
		if vals[i], _, err = get(s.cfg.Store, k); err != nil {
			return nil, fmt.Errorf("core: %s on server %d: %v", what, s.cfg.ID, err)
		}
	}
	return enc(vals), nil
}

// NamedOp discriminates NamedMutation payloads.
type NamedOp uint8

const (
	// NamedAddVertex upserts a vertex addressed by its external name:
	// the name is interned (idempotently) and the vertex stored under the
	// interned id with the given label and properties. Re-adding a name
	// updates its label/properties in place.
	NamedAddVertex NamedOp = iota + 1
	// NamedDelVertex deletes the vertex a name resolves to, along with its
	// out-edges. Deleting a never-interned name is a no-op.
	NamedDelVertex
	// NamedAddEdge upserts a directed edge between two named vertices. Both
	// endpoint names are interned, so the edge can be written before (or
	// without) its endpoint vertices — pair with NamedAddVertex to give the
	// endpoints labels and properties.
	NamedAddEdge
	// NamedDelEdge deletes the directed edge between two named vertices. A
	// no-op when either name was never interned or the edge does not exist.
	NamedDelEdge
)

// NamedMutation is one write expressed in external vertex names instead of
// interned ids — the application-facing shape of a metadata mutation.
type NamedMutation struct {
	Op NamedOp
	// Name is the vertex's external name (vertex ops).
	Name string
	// Label is the vertex's type label (NamedAddVertex) or the edge's
	// relationship label (edge ops).
	Label string
	// Props carries the vertex or edge properties for add ops.
	Props property.Map
	// Src and Dst name the edge's endpoints (edge ops).
	Src, Dst string
}

// Mutate applies a batch of name-addressed mutations through the quorum
// write path: names referenced by add ops are interned first (one quorum
// round per touched partition), delete ops resolve their names read-only
// (never-interned names make the delete a no-op), and the resulting
// id-addressed mutations ship grouped by partition via Write. The returned
// map gives the interned id of every name an add op touched. Each replica
// applies the mutations to its own store, so read caches invalidate
// write-through and property indexes update incrementally — there is no
// backfill step.
func (c *Client) Mutate(muts []NamedMutation, opts WriteOptions) (map[string]model.VertexID, error) {
	if len(muts) == 0 {
		return nil, nil
	}
	// Pass 1: split the referenced names into those that must exist after
	// the batch (interned) and those only looked up (resolved).
	var internNames, resolveNames []string
	internSeen := make(map[string]bool)
	resolveSeen := make(map[string]bool)
	need := func(name string, create bool) {
		if name == "" {
			return
		}
		if create {
			if !internSeen[name] {
				internSeen[name] = true
				internNames = append(internNames, name)
			}
			return
		}
		if !resolveSeen[name] {
			resolveSeen[name] = true
			resolveNames = append(resolveNames, name)
		}
	}
	for _, m := range muts {
		switch m.Op {
		case NamedAddVertex:
			need(m.Name, true)
		case NamedDelVertex:
			need(m.Name, false)
		case NamedAddEdge:
			need(m.Src, true)
			need(m.Dst, true)
		case NamedDelEdge:
			need(m.Src, false)
			need(m.Dst, false)
		default:
			return nil, fmt.Errorf("query: unknown named mutation op %d", m.Op)
		}
	}
	ids := make(map[string]model.VertexID, len(internNames)+len(resolveNames))
	if len(internNames) > 0 {
		got, err := c.Intern(internNames, opts)
		if err != nil {
			return nil, err
		}
		for i, name := range internNames {
			ids[name] = got[i]
		}
	}
	if len(resolveNames) > 0 {
		// Skip names an add op in the same batch already interned.
		var ask []string
		for _, name := range resolveNames {
			if _, ok := ids[name]; !ok {
				ask = append(ask, name)
			}
		}
		if len(ask) > 0 {
			got, err := c.ResolveNames(ask, opts)
			if err != nil {
				return nil, err
			}
			for i, name := range ask {
				ids[name] = got[i] // 0 when never interned
			}
		}
	}
	// Pass 2: lower to id-addressed mutations. Deletes of unknown names
	// drop out as no-ops (their target cannot exist).
	out := make([]gstore.Mutation, 0, len(muts))
	for _, m := range muts {
		switch m.Op {
		case NamedAddVertex:
			out = append(out, gstore.Mutation{Op: gstore.OpPutVertex, Vertex: model.Vertex{
				ID: ids[m.Name], Label: m.Label, Props: m.Props,
			}})
		case NamedDelVertex:
			if id := ids[m.Name]; id != 0 {
				out = append(out, gstore.Mutation{Op: gstore.OpDelVertex, ID: id})
			}
		case NamedAddEdge:
			out = append(out, gstore.Mutation{Op: gstore.OpPutEdge, Edge: model.Edge{
				Src: ids[m.Src], Dst: ids[m.Dst], Label: m.Label, Props: m.Props,
			}})
		case NamedDelEdge:
			src, dst := ids[m.Src], ids[m.Dst]
			if src != 0 && dst != 0 {
				out = append(out, gstore.Mutation{Op: gstore.OpDelEdge, Src: src, Label: m.Label, Dst: dst})
			}
		}
	}
	if err := c.Write(out, opts); err != nil {
		return nil, err
	}
	// Report only the ids guaranteed to exist after the batch.
	named := make(map[string]model.VertexID, len(internNames))
	for _, name := range internNames {
		named[name] = ids[name]
	}
	return named, nil
}

// BulkOptions tunes BulkLoad.
type BulkOptions struct {
	// MaxBatch splits each partition's run into quorum rounds of at most
	// this many mutations (default 256), bounding message size and
	// per-round primary work.
	MaxBatch int
	// Parallel bounds the number of partitions loaded concurrently
	// (default: all of them — one in-flight stream per partition saturates
	// every primary at once).
	Parallel int
	// Write carries the per-round timeout/retry policy.
	Write WriteOptions
}

// BulkLoad ingests a large mutation set through the quorum write path at
// full cluster width: mutations are grouped by partition (preserving each
// partition's relative order, so later writes to a key win), oversized
// groups split into MaxBatch rounds, and the per-partition streams run
// concurrently — every primary is loading at once, instead of the one-
// partition-at-a-time cadence a sequential Write loop would produce.
func (c *Client) BulkLoad(muts []gstore.Mutation, opts BulkOptions) error {
	if c.route == nil {
		return errors.New("core: replication is not enabled on this cluster")
	}
	if len(muts) == 0 {
		return nil
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = 256
	}
	byPart := make(map[int][]gstore.Mutation)
	for _, m := range muts {
		p := c.route.Partition(m.RoutingID())
		byPart[p] = append(byPart[p], m)
	}
	parallel := opts.Parallel
	if parallel <= 0 || parallel > len(byPart) {
		parallel = len(byPart)
	}
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, run := range byPart {
		wg.Add(1)
		go func(run []gstore.Mutation) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// Rounds within one partition stay sequential: same-key order is
			// the contract that makes the last write win.
			for lo := 0; lo < len(run); lo += opts.MaxBatch {
				hi := lo + opts.MaxBatch
				if hi > len(run) {
					hi = len(run)
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := c.Write(run[lo:hi], opts.Write); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(run)
	}
	wg.Wait()
	return firstErr
}
