package kv

import "encoding/binary"

// bloomFilter is a classic split Bloom filter over the keys of one SSTable,
// sized at build time for ~1% false positives (10 bits per key, 6 probes).
// Point lookups consult it before the sparse index, so a Get for an absent
// key usually costs no block scan at all — the same role RocksDB's per-table
// filter blocks play.
type bloomFilter struct {
	bits []byte
	k    uint32
}

const (
	bloomBitsPerKey = 10
	bloomProbes     = 6
)

// newBloomFilter sizes a filter for n keys.
func newBloomFilter(n int) *bloomFilter {
	if n < 1 {
		n = 1
	}
	nBits := n * bloomBitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	return &bloomFilter{bits: make([]byte, (nBits+7)/8), k: bloomProbes}
}

// bloomHash derives the two base hashes for double hashing: FNV-1a, inline
// so that a probe allocates no hasher, and a mix of it.
func bloomHash(key []byte) (uint64, uint64) {
	h1 := uint64(14695981039346656037)
	for _, c := range key {
		h1 = (h1 ^ uint64(c)) * 1099511628211
	}
	// A second, independent-enough hash via multiplicative mixing.
	h2 := h1 * 0xc6a4a7935bd1e995
	h2 ^= h2 >> 29
	h2 |= 1 // ensure odd so probes cycle the whole table
	return h1, h2
}

// add inserts a key.
func (f *bloomFilter) add(key []byte) {
	h1, h2 := bloomHash(key)
	n := uint64(len(f.bits)) * 8
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		f.bits[bit/8] |= 1 << (bit % 8)
	}
}

// mayContain reports whether the key might be present. False negatives are
// impossible; false positives occur at the configured rate.
func (f *bloomFilter) mayContain(key []byte) bool {
	if len(f.bits) == 0 {
		return true
	}
	h1, h2 := bloomHash(key)
	n := uint64(len(f.bits)) * 8
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % n
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// encode serializes the filter: [k: 4 bytes LE][bits].
func (f *bloomFilter) encode() []byte {
	out := make([]byte, 4+len(f.bits))
	binary.LittleEndian.PutUint32(out, f.k)
	copy(out[4:], f.bits)
	return out
}

// decodeBloomFilter parses an encoded filter; a nil/empty input yields a
// pass-through filter (treat everything as possibly present).
func decodeBloomFilter(b []byte) *bloomFilter {
	if len(b) < 4 {
		return &bloomFilter{}
	}
	return &bloomFilter{k: binary.LittleEndian.Uint32(b), bits: b[4:]}
}
