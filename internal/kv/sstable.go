package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// SSTable file format (gtss3):
//
//	data section:   repeated records
//	                  [op: 1 byte][shared uvarint][unshared uvarint]
//	                  [vlen uvarint][key suffix][value]
//	                a key is the first `shared` bytes of the previous
//	                record's key followed by the suffix; shared is 0 at
//	                every index sample, so a read can start there
//	index section:  repeated samples (every IndexInterval-th record)
//	                  [klen uvarint][key][offset uvarint]
//	filter section: Bloom filter over all keys ([k: 4][bits])
//	footer (33 B):  [data len: 8][index count: 8][filter len: 8]
//	                [data crc: 4][magic: 5]
//
// A table is mapped read-only at open (mmap_unix.go; elsewhere the file is
// read whole, mmap_other.go) and every read parses the mapping in place: the
// sparse index keys and the Bloom filter alias it, a point lookup walks the
// one index interval that can hold the key, and an iterator walks forward
// from its seek — the access pattern typed edge scans produce. Nothing is
// copied: an entry's key is rebuilt in its reader's own buffer and its value
// aliases the mapping, so an iterator's entry is valid until its next call
// to next (see sstIterator), which is why the merge above it advances lazily
// (merge.go). The mapping lives until close, which runs only under the DB's
// write lock.
//
// There is one reader. A file of an earlier format is refused at open.

var sstMagic = [5]byte{'g', 't', 's', 's', '3'}

const footerSize = 8 + 8 + 8 + 4 + 5

// sstable is an open, immutable sorted table.
type sstable struct {
	path    string
	mapped  []byte // the whole file, read-only
	data    []byte // mapped[:data section length]
	fileNum uint64 // larger = newer
	index   []indexEntry
	filter  *bloomFilter
	minKey  []byte
	maxKey  []byte
}

type indexEntry struct {
	key    []byte
	offset int64
}

// buildSSTable writes entries (which must be sorted by key, no duplicates)
// into a new table file at path. Tombstones are retained: a newer table's
// tombstone must shadow older tables until a full compaction drops it.
func buildSSTable(path string, fileNum uint64, ents []entry, indexInterval int) (*sstable, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kv: create sstable: %w", err)
	}
	crc := crc32.NewIEEE()
	w := bufio.NewWriterSize(io.MultiWriter(f, crc), 256<<10)
	filter := newBloomFilter(len(ents))
	var (
		off   int64
		index []indexEntry
		buf   []byte
		prev  []byte
	)
	for i, e := range ents {
		filter.add(e.key)
		shared := 0
		if i%indexInterval == 0 {
			index = append(index, indexEntry{key: append([]byte(nil), e.key...), offset: off})
		} else {
			for shared < len(prev) && shared < len(e.key) && prev[shared] == e.key[shared] {
				shared++
			}
		}
		prev = e.key
		buf = buf[:0]
		if e.tombstone {
			buf = append(buf, walOpDelete)
		} else {
			buf = append(buf, walOpPut)
		}
		buf = binary.AppendUvarint(buf, uint64(shared))
		buf = binary.AppendUvarint(buf, uint64(len(e.key)-shared))
		buf = binary.AppendUvarint(buf, uint64(len(e.value)))
		buf = append(buf, e.key[shared:]...)
		buf = append(buf, e.value...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return nil, err
		}
		off += int64(len(buf))
	}
	dataLen := off
	dataCRC := uint32(0)
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	dataCRC = crc.Sum32()
	// index section
	iw := bufio.NewWriter(f)
	for _, ie := range index {
		var b []byte
		b = binary.AppendUvarint(b, uint64(len(ie.key)))
		b = append(b, ie.key...)
		b = binary.AppendUvarint(b, uint64(ie.offset))
		if _, err := iw.Write(b); err != nil {
			f.Close()
			return nil, err
		}
	}
	filterBytes := filter.encode()
	if _, err := iw.Write(filterBytes); err != nil {
		f.Close()
		return nil, err
	}
	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(dataLen))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(index)))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(len(filterBytes)))
	binary.LittleEndian.PutUint32(footer[24:28], dataCRC)
	copy(footer[28:], sstMagic[:])
	if _, err := iw.Write(footer[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := iw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return openSSTable(path, fileNum)
}

// openSSTable maps an existing table and parses its sparse index.
func openSSTable(path string, fileNum uint64) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kv: open sstable: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < footerSize {
		return nil, fmt.Errorf("kv: sstable %s too small", path)
	}
	mapped, err := mapFile(f, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("kv: map sstable %s: %w", path, err)
	}
	t := &sstable{path: path, mapped: mapped, fileNum: fileNum}
	if err := t.load(); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// load parses the footer, the sparse index and the filter out of the
// mapping, and finds the max key.
func (t *sstable) load() error {
	footer := t.mapped[len(t.mapped)-footerSize:]
	if got := [5]byte(footer[28:33]); got != sstMagic {
		return fmt.Errorf("kv: sstable %s has format %q, this build reads only %q", t.path, got[:], sstMagic[:])
	}
	dataLen := binary.LittleEndian.Uint64(footer[0:8])
	count := binary.LittleEndian.Uint64(footer[8:16])
	filterLen := binary.LittleEndian.Uint64(footer[16:24])
	body := uint64(len(t.mapped) - footerSize)
	if dataLen > body || filterLen > body-dataLen {
		return fmt.Errorf("kv: sstable %s corrupt footer", t.path)
	}
	t.data = t.mapped[:dataLen]
	raw := t.mapped[dataLen : body-filterLen]
	t.filter = decodeBloomFilter(t.mapped[body-filterLen : body])
	// A sample takes at least two bytes, which bounds what a corrupt count
	// can make this allocate.
	t.index = make([]indexEntry, 0, min(count, uint64(len(raw))/2))
	for i := uint64(0); i < count; i++ {
		kn, sz := binary.Uvarint(raw)
		if sz <= 0 || uint64(len(raw)-sz) < kn {
			return fmt.Errorf("kv: sstable %s corrupt index", t.path)
		}
		end := sz + int(kn)
		key := raw[sz:end:end] // capped: the mapping is read-only
		raw = raw[end:]
		off, sz := binary.Uvarint(raw)
		if sz <= 0 || off > dataLen || (i > 0 && int64(off) < t.index[i-1].offset) {
			return fmt.Errorf("kv: sstable %s corrupt index offset", t.path)
		}
		raw = raw[sz:]
		t.index = append(t.index, indexEntry{key: key, offset: int64(off)})
	}
	if len(t.index) == 0 {
		return nil
	}
	t.minKey = t.index[0].key
	// The true max key requires a walk of the last interval; do it once.
	var it sstIterator
	for it.seek(t, t.index[len(t.index)-1].key); it.ok; it.next() {
		t.maxKey = append(t.maxKey[:0], it.cur.key...)
	}
	return it.err
}

// close unmaps the table. The DB calls it only under its write lock, when
// no reader can hold an entry of the table.
func (t *sstable) close() error { return unmapFile(t.mapped) }

// verifyChecksum hashes the data section and compares the CRC against the
// footer. Used by DB.CheckIntegrity.
func (t *sstable) verifyChecksum() error {
	if crc32.ChecksumIEEE(t.data) != binary.LittleEndian.Uint32(t.mapped[len(t.mapped)-footerSize+24:]) {
		return fmt.Errorf("kv: sstable %s data checksum mismatch", t.path)
	}
	return nil
}

// interval returns the data range [lo, hi) of the one index interval that
// can hold key: from the last sample at or before key to the next sample.
func (t *sstable) interval(key []byte) (lo, hi int64) {
	// First index sample with key > target, then step back one.
	i := sort.Search(len(t.index), func(i int) bool {
		return compareKeys(t.index[i].key, key) > 0
	})
	hi = int64(len(t.data))
	if i < len(t.index) {
		hi = t.index[i].offset
	}
	if i > 0 {
		lo = t.index[i-1].offset
	}
	return lo, hi
}

// overlaps reports whether the table can hold a key in [start, end); nil
// bounds are open.
func (t *sstable) overlaps(start, end []byte) bool {
	if len(t.index) == 0 {
		return false
	}
	if end != nil && compareKeys(t.minKey, end) >= 0 {
		return false
	}
	return start == nil || compareKeys(t.maxKey, start) >= 0
}

// get performs a point lookup: key range and Bloom filter first, then a walk
// of the index interval that can hold the key. It allocates nothing; the
// entry's value aliases the mapping, and its key is left nil.
func (t *sstable) get(key []byte) (entry, bool, error) {
	if len(t.index) == 0 || compareKeys(key, t.minKey) < 0 || compareKeys(key, t.maxKey) > 0 {
		return entry{}, false, nil
	}
	if t.filter != nil && !t.filter.mayContain(key) {
		return entry{}, false, nil
	}
	lo, hi := t.interval(key)
	var keyBuf [64]byte
	for b, cur, off := t.data[lo:hi], keyBuf[:0], lo; len(b) > 0; {
		k, v, n, err := parseRecord(b, cur)
		if err != nil {
			return entry{}, false, t.badRecord(off, err)
		}
		switch c := compareKeys(k, key); {
		case c == 0:
			return entry{value: v, tombstone: b[0] == walOpDelete}, true, nil
		case c > 0:
			return entry{}, false, nil
		}
		cur, b, off = k, b[n:], off+n
	}
	return entry{}, false, nil
}

func (t *sstable) badRecord(off int64, err error) error {
	return fmt.Errorf("kv: sstable %s: record at %d: %w", t.path, off, err)
}

var (
	errPastRange = errors.New("runs past the end of its range")
	errEmptyKey  = errors.New("has an empty key")
)

// maxRecordField bounds one key or value length read from a record header,
// so a record's length is computed without overflow.
const maxRecordField = 1 << 30

// parseRecord decodes the whole record at the front of b without copying and
// returns its length n; b[0] tells a put from a tombstone. The value aliases
// b; the key is the first shared bytes of prev — the previous record's key —
// with the suffix appended in place. (Key and value are separate results so
// that a caller keeping only the value does not make prev's buffer escape.)
// A record with an empty key is an error, not a record: no key the store
// admits is empty, and zeroed bytes (a hole, a page past a file's end)
// would otherwise read as empty puts.
func parseRecord(b, prev []byte) (key, value []byte, n int64, err error) {
	if len(b) == 0 {
		return nil, nil, 0, errPastRange
	}
	if b[0] != walOpPut && b[0] != walOpDelete {
		return nil, nil, 0, fmt.Errorf("unknown op %#x", b[0])
	}
	var lens [3]uint64 // shared, unshared, value
	pos := 1
	for i := range lens {
		v, sz := binary.Uvarint(b[pos:])
		if sz == 0 {
			return nil, nil, 0, errPastRange
		}
		if sz < 0 || v > maxRecordField {
			return nil, nil, 0, fmt.Errorf("bad length field %d", i)
		}
		lens[i] = v
		pos += sz
	}
	if lens[0]+lens[1] == 0 {
		return nil, nil, 0, errEmptyKey
	}
	if lens[0] > uint64(len(prev)) {
		return nil, nil, 0, fmt.Errorf("shares %d bytes with a %d-byte key", lens[0], len(prev))
	}
	if n = int64(pos) + int64(lens[1]) + int64(lens[2]); n > int64(len(b)) {
		return nil, nil, 0, errPastRange
	}
	mid := pos + int(lens[1])
	return append(prev[:lens[0]], b[pos:mid]...), b[mid:n], n, nil
}

// sstIterator reads records in order from a seek position. Its entry's key
// is rebuilt in the iterator's own buffer and its value aliases the mapping,
// so the entry is valid only until next. It needs no closing: iterators live
// by value in their Iterator's slab (iterator.go).
type sstIterator struct {
	t      *sstable
	off    int64    // data offset of the next record
	keyBuf [56]byte // longer keys move to the heap
	cur    entry
	ok     bool
	err    error
}

// seek positions it at the first key >= start in t (the first key when
// start is nil).
func (it *sstIterator) seek(t *sstable, start []byte) {
	*it = sstIterator{t: t}
	it.cur.key = it.keyBuf[:0]
	if start != nil {
		it.off, _ = t.interval(start)
	}
	for it.next(); it.ok && start != nil && compareKeys(it.cur.key, start) < 0; {
		it.next()
	}
}

func (it *sstIterator) next() {
	it.ok = false
	if it.err != nil || it.off >= int64(len(it.t.data)) {
		return
	}
	b := it.t.data[it.off:]
	k, v, n, err := parseRecord(b, it.cur.key)
	if err != nil {
		it.err = it.t.badRecord(it.off, err)
		return
	}
	it.cur, it.ok = entry{key: k, value: v, tombstone: b[0] == walOpDelete}, true
	it.off += n
}
