package kv

// mergeIterator merges the memtable and the tables into one key-ordered
// stream with newest-wins semantics: the memtable shadows every table, and
// tabs[i] shadows tabs[j] for j > i, on equal keys. Tombstones are surfaced
// (not suppressed) so the caller decides whether they are visible (reads) or
// retained (compaction). The sources are concrete values, not an interface:
// the table cursors live in their Iterator's own allocation (iterator.go).
//
// It advances lazily. The current entry is the best source's own, still in
// that source's buffer, so no source is stepped until the caller asks for
// the next entry; a table that fails ends the whole merge, since the
// sources left could only give a partial answer.
type mergeIterator struct {
	mem  memIterator   // a nil node: exhausted, or no memtable in the merge
	tabs []sstIterator // newest first
	best int           // 0 for the memtable, i+1 for tabs[i]; -1 when done
	err  error
}

// pick selects the smallest current key; among sources tied on that key
// the newest wins.
func (m *mergeIterator) pick() {
	m.best = -1
	var bestKey []byte
	if m.mem.valid() {
		m.best, bestKey = 0, m.mem.entry().key
	}
	for i := range m.tabs {
		if s := &m.tabs[i]; s.ok {
			if m.best < 0 || compareKeys(s.cur.key, bestKey) < 0 {
				m.best, bestKey = i+1, s.cur.key
			}
		} else if s.err != nil {
			m.best, m.err = -1, s.err
			return
		}
	}
}

// next steps every source standing on the current key — the best one last,
// because the key being compared lives in its buffer — and re-picks.
func (m *mergeIterator) next() {
	key := m.entry().key
	if m.best != 0 && m.mem.valid() && compareKeys(m.mem.entry().key, key) == 0 {
		m.mem.next()
	}
	for i := range m.tabs {
		if s := &m.tabs[i]; i+1 != m.best && s.ok && compareKeys(s.cur.key, key) == 0 {
			s.next()
		}
	}
	if m.best == 0 {
		m.mem.next()
	} else {
		m.tabs[m.best-1].next()
	}
	m.pick()
}

func (m *mergeIterator) valid() bool { return m.best >= 0 }

func (m *mergeIterator) entry() entry {
	switch {
	case m.best > 0:
		return m.tabs[m.best-1].cur
	case m.best == 0:
		return m.mem.entry()
	}
	return entry{}
}
