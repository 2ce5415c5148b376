package kv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
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
// The sparse index and Bloom filter are loaded into memory at open. A point
// lookup consults the key range and the filter, binary searches the index and
// ReadAts the one index interval that can hold the key into a pooled 4 KiB
// window, parses it in place and copies only the matching value. An iterator
// seeks the same way and then refills its window sequentially — the access
// pattern typed edge scans produce — growing it only for a record that does
// not fit. Nothing is copied out of the window: an iterator's entry is
// valid until its next call to next (see sstIterator), which is why the
// merge above it advances lazily (merge.go).
//
// There is one reader. A file of an earlier format is refused at open.

var sstMagic = [5]byte{'g', 't', 's', 's', '3'}

const footerSize = 8 + 8 + 8 + 4 + 5

// sstable is an open, immutable sorted table.
type sstable struct {
	path     string
	f        *os.File
	fileNum  uint64 // larger = newer
	dataLen  int64
	index    []indexEntry
	filter   *bloomFilter
	minKey   []byte
	maxKey   []byte
	numBytes int64
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

// openSSTable opens an existing table and loads its sparse index.
func openSSTable(path string, fileNum uint64) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kv: open sstable: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, fmt.Errorf("kv: sstable %s too small", path)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if got := [5]byte(footer[28:33]); got != sstMagic {
		f.Close()
		return nil, fmt.Errorf("kv: sstable %s has format %q, this build reads only %q", path, got[:], sstMagic[:])
	}
	dataLen := int64(binary.LittleEndian.Uint64(footer[0:8]))
	count := binary.LittleEndian.Uint64(footer[8:16])
	filterLen := int64(binary.LittleEndian.Uint64(footer[16:24]))
	indexLen := st.Size() - footerSize - dataLen - filterLen
	if dataLen < 0 || indexLen < 0 || filterLen < 0 {
		f.Close()
		return nil, fmt.Errorf("kv: sstable %s corrupt footer", path)
	}
	raw := make([]byte, indexLen)
	if _, err := f.ReadAt(raw, dataLen); err != nil {
		f.Close()
		return nil, err
	}
	filterRaw := make([]byte, filterLen)
	if _, err := f.ReadAt(filterRaw, dataLen+indexLen); err != nil {
		f.Close()
		return nil, err
	}
	t := &sstable{
		path: path, f: f, fileNum: fileNum, dataLen: dataLen,
		filter: decodeBloomFilter(filterRaw), numBytes: st.Size(),
	}
	t.index = make([]indexEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		kn, sz := binary.Uvarint(raw)
		if sz <= 0 || uint64(len(raw)-sz) < kn {
			f.Close()
			return nil, fmt.Errorf("kv: sstable %s corrupt index", path)
		}
		key := append([]byte(nil), raw[sz:sz+int(kn)]...)
		raw = raw[sz+int(kn):]
		off, sz := binary.Uvarint(raw)
		if sz <= 0 {
			f.Close()
			return nil, fmt.Errorf("kv: sstable %s corrupt index offset", path)
		}
		raw = raw[sz:]
		t.index = append(t.index, indexEntry{key: key, offset: int64(off)})
	}
	if len(t.index) > 0 {
		t.minKey = t.index[0].key
		// The true max key requires a scan of the last block; do it once.
		it := t.iterate(t.index[len(t.index)-1].key)
		for ; it.ok; it.next() {
			t.maxKey = append(t.maxKey[:0], it.cur.key...)
		}
		it.close()
		if err := it.err; err != nil {
			f.Close()
			return nil, err
		}
	}
	return t, nil
}

func (t *sstable) close() error { return t.f.Close() }

// verifyChecksum re-reads the data section and compares its CRC against the
// footer. Used by DB.CheckIntegrity.
func (t *sstable) verifyChecksum() error {
	var footer [footerSize]byte
	st, err := t.f.Stat()
	if err != nil {
		return err
	}
	if _, err := t.f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		return err
	}
	want := binary.LittleEndian.Uint32(footer[24:28])
	crc := crc32.NewIEEE()
	if _, err := io.Copy(crc, io.NewSectionReader(t.f, 0, t.dataLen)); err != nil {
		return err
	}
	if crc.Sum32() != want {
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
	hi = t.dataLen
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

// windowSize is the unit of data-section reads. Only windows of this size
// are pooled: a pooled buffer survives a collection, so a pooled large one
// would be live heap for good.
const windowSize = 4 << 10

var windowPool = sync.Pool{New: func() any {
	b := make([]byte, windowSize)
	return &b
}}

// get performs a point lookup: key range and Bloom filter first, then one
// read of the index interval that can hold the key, parsed in place. The
// returned value is a copy, the only allocation; a miss makes none.
func (t *sstable) get(key []byte) (entry, bool, error) {
	if len(t.index) == 0 || compareKeys(key, t.minKey) < 0 || compareKeys(key, t.maxKey) > 0 {
		return entry{}, false, nil
	}
	if t.filter != nil && !t.filter.mayContain(key) {
		return entry{}, false, nil
	}
	lo, hi := t.interval(key)
	pooled := windowPool.Get().(*[]byte)
	defer windowPool.Put(pooled)
	b := *pooled
	if hi-lo > windowSize {
		b = make([]byte, hi-lo) // an interval with a large value in it
	}
	b = b[:hi-lo]
	if _, err := t.f.ReadAt(b, lo); err != nil {
		return entry{}, false, t.badRecord(lo, err)
	}
	var keyBuf [64]byte
	for cur, off := keyBuf[:0], lo; len(b) > 0; {
		e, n, err := parseRecord(b, cur)
		if err == nil && (n == 0 || n > int64(len(b))) {
			err = errPastRange
		}
		if err != nil {
			return entry{}, false, t.badRecord(off, err)
		}
		switch c := compareKeys(e.key, key); {
		case c == 0:
			return entry{key: key, value: bytes.Clone(e.value), tombstone: e.tombstone}, true, nil
		case c > 0:
			return entry{}, false, nil
		}
		cur, b, off = e.key, b[n:], off+n
	}
	return entry{}, false, nil
}

func (t *sstable) badRecord(off int64, err error) error {
	return fmt.Errorf("kv: sstable %s: record at %d: %w", t.path, off, err)
}

var errPastRange = errors.New("runs past the end of its range")

// maxRecordField bounds one key or value length read from a record header,
// so a record's length is computed without overflow.
const maxRecordField = 1 << 30

// parseRecord decodes the record at the front of b without copying. n is
// the record's full length, or 0 when b ends inside the header. The entry is
// set only when b holds all n bytes: its value aliases b, and its key is the
// first shared bytes of prev — the previous record's key — with the suffix
// appended in place. An error means no further bytes make this a record.
func parseRecord(b, prev []byte) (e entry, n int64, err error) {
	if len(b) == 0 {
		return entry{}, 0, nil
	}
	if b[0] != walOpPut && b[0] != walOpDelete {
		return entry{}, 0, fmt.Errorf("unknown op %#x", b[0])
	}
	var lens [3]uint64 // shared, unshared, value
	pos := 1
	for i := range lens {
		v, sz := binary.Uvarint(b[pos:])
		if sz == 0 {
			return entry{}, 0, nil
		}
		if sz < 0 || v > maxRecordField {
			return entry{}, 0, fmt.Errorf("bad length field %d", i)
		}
		lens[i] = v
		pos += sz
	}
	if lens[0] > uint64(len(prev)) {
		return entry{}, 0, fmt.Errorf("shares %d bytes with a %d-byte key", lens[0], len(prev))
	}
	if n = int64(pos) + int64(lens[1]) + int64(lens[2]); n > int64(len(b)) {
		return entry{}, n, nil
	}
	mid := pos + int(lens[1])
	return entry{key: append(prev[:lens[0]], b[pos:mid]...), value: b[mid:n], tombstone: b[0] == walOpDelete}, n, nil
}

// sstIterator reads records in order from a seek position, through a window
// filled by ReadAt. Its entry aliases the window (value) and the iterator's
// own key buffer (key), so it is valid only until next or close.
type sstIterator struct {
	t      *sstable
	off    int64   // data offset of the next record
	win    []byte  // unparsed bytes, starting at off
	pooled *[]byte // the pool's buffer behind win; nil once a record outgrew it
	keyBuf [64]byte
	cur    entry
	ok     bool
	err    error
}

// iterate returns an iterator positioned at the first key >= start.
func (t *sstable) iterate(start []byte) *sstIterator {
	it := &sstIterator{t: t}
	it.cur.key = it.keyBuf[:0]
	if start != nil {
		it.off, _ = t.interval(start)
	}
	for it.next(); it.ok && start != nil && compareKeys(it.cur.key, start) < 0; {
		it.next()
	}
	return it
}

// fill makes win the want bytes at off, in the pooled window when they fit.
func (it *sstIterator) fill(want int64) error {
	if want > windowSize {
		it.close()
		it.win = make([]byte, want)
	} else {
		if it.pooled == nil {
			it.pooled = windowPool.Get().(*[]byte)
		}
		it.win = (*it.pooled)[:want]
	}
	_, err := it.t.f.ReadAt(it.win, it.off)
	return err
}

// close hands the pooled window back; the current entry dies with it.
func (it *sstIterator) close() {
	if it.pooled != nil {
		windowPool.Put(it.pooled)
		it.pooled = nil
	}
	it.win = nil
}

func (it *sstIterator) next() {
	it.ok = false
	if it.err != nil || it.off >= it.t.dataLen {
		return
	}
	for {
		e, n, err := parseRecord(it.win, it.cur.key)
		if err == nil && n > 0 && n <= int64(len(it.win)) {
			it.cur, it.ok = e, true
			it.win = it.win[n:]
			it.off += n
			return
		}
		if err == nil {
			// The record is not wholly in the window: read a full window
			// from its start, or as much as it is now known to need.
			want := min(max(n, windowSize), it.t.dataLen-it.off)
			if want <= int64(len(it.win)) {
				err = errPastRange
			} else {
				err = it.fill(want)
			}
		}
		if err != nil {
			it.err = it.t.badRecord(it.off, err)
			return
		}
	}
}

func (it *sstIterator) valid() bool  { return it.ok }
func (it *sstIterator) entry() entry { return it.cur }
func (it *sstIterator) error() error { return it.err }
