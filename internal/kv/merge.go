package kv

// source is the common shape of memtable and sstable iterators. An entry may
// alias the source's read buffer: it is valid until the source's next call
// to next or close, and no longer.
type source interface {
	valid() bool
	entry() entry
	next()
	error() error // why the source stopped early, if it did
	close()
}

// mergeIterator merges several key-ordered sources into one key-ordered
// stream with newest-wins semantics: sources earlier in the slice shadow
// later ones on equal keys. Tombstones are surfaced (not suppressed) so the
// caller decides whether they are visible (reads) or retained (compaction).
//
// It advances lazily. The current entry is the best source's own, still in
// that source's buffer, so no source is stepped until the caller asks for
// the next entry; a source that fails ends the whole merge, since the
// sources left could only give a partial answer.
type mergeIterator struct {
	srcs []source
	best int // the source standing on the current entry; -1 when done
	err  error
}

// init positions the merge on the first entry of srcs, newest source first.
func (m *mergeIterator) init(srcs []source) {
	m.srcs = srcs
	m.pick()
}

// pick selects the smallest current key; among sources tied on that key
// the lowest index (newest) wins.
func (m *mergeIterator) pick() {
	m.best = -1
	var bestKey []byte
	for i, s := range m.srcs {
		if s.valid() {
			if k := s.entry().key; m.best < 0 || compareKeys(k, bestKey) < 0 {
				m.best, bestKey = i, k
			}
		} else if m.err = s.error(); m.err != nil {
			m.best = -1
			return
		}
	}
}

// next steps every source standing on the current key — the best one last,
// because the key being compared lives in its buffer — and re-picks.
func (m *mergeIterator) next() {
	best := m.srcs[m.best]
	key := best.entry().key
	for i, s := range m.srcs {
		if i != m.best && s.valid() && compareKeys(s.entry().key, key) == 0 {
			s.next()
		}
	}
	best.next()
	m.pick()
}

func (m *mergeIterator) valid() bool  { return m.best >= 0 }
func (m *mergeIterator) entry() entry { return m.srcs[m.best].entry() }

// close releases every source's buffer; the current entry dies with them.
func (m *mergeIterator) close() {
	for _, s := range m.srcs {
		s.close()
	}
}
