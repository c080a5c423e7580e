package memcached

// hashTable is memcached's associative array: power-of-two buckets with
// intrusive chaining and *incremental* expansion — when the load factor
// crosses the threshold the table doubles, but items migrate a few
// buckets per operation so no single request pays the full rehash.
type hashTable struct {
	primary   []*Item
	old       []*Item // non-nil while expanding
	expandPos int     // next old bucket to migrate
	count     int
}

const (
	hashInitialPower = 7   // 128 buckets, larger tables grow into place
	hashLoadFactor   = 1.5 // expand when count > factor × buckets
	hashMigratePerOp = 2   // old buckets migrated per table operation
	fnvOffset        = 14695981039346656037
	fnvPrime         = 1099511628211
)

func newHashTable() *hashTable {
	return &hashTable{primary: make([]*Item, 1<<hashInitialPower)}
}

// wireKey is a key in either form the engine holds one in: the []byte a
// frontend decoded in place off the wire, or the string a linked item
// keeps.
type wireKey interface{ ~string | ~[]byte }

// hashKey is FNV-1a, memcached-style key hashing, over either form with
// no conversion.
func hashKey[K wireKey](key K) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// bucketFor picks the chain a key lives in, considering an in-progress
// expansion: buckets not yet migrated are still served from the old
// table.
func (t *hashTable) bucketFor(h uint64) (tbl []*Item, idx int) {
	if t.old != nil {
		oi := int(h & uint64(len(t.old)-1))
		if oi >= t.expandPos {
			return t.old, oi
		}
	}
	return t.primary, int(h & uint64(len(t.primary)-1))
}

// lookup finds the item for key, whose hashKey is h, or nil — the
// table's one lookup, for wire keys and item keys alike. The string
// conversion in the comparison does not allocate (the compiler compares
// in place), so the datapath looks keys up straight out of receive
// buffers. The caller hashed the key once, for its shard too.
func lookup[K wireKey](t *hashTable, key K, h uint64) *Item {
	t.migrate()
	tbl, idx := t.bucketFor(h)
	for it := tbl[idx]; it != nil; it = it.hnext {
		if it.key == string(key) {
			return it
		}
	}
	return nil
}

// put links a new item whose key hashes to h; the caller guarantees the
// key is absent.
func (t *hashTable) put(it *Item, h uint64) {
	t.migrate()
	tbl, idx := t.bucketFor(h)
	it.hnext = tbl[idx]
	tbl[idx] = it
	it.linked = true
	t.count++
	t.maybeExpand()
}

// delete unlinks the item for key, whose hashKey is h, returning it (or
// nil).
func (t *hashTable) delete(key string, h uint64) *Item {
	t.migrate()
	tbl, idx := t.bucketFor(h)
	var prev *Item
	for it := tbl[idx]; it != nil; it = it.hnext {
		if it.key == key {
			if prev == nil {
				tbl[idx] = it.hnext
			} else {
				prev.hnext = it.hnext
			}
			it.hnext = nil
			it.linked = false
			t.count--
			return it
		}
		prev = it
	}
	return nil
}

// maybeExpand starts an expansion when the load factor is exceeded.
func (t *hashTable) maybeExpand() {
	if t.old != nil || float64(t.count) <= hashLoadFactor*float64(len(t.primary)) {
		return
	}
	t.old = t.primary
	t.primary = make([]*Item, len(t.old)*2)
	t.expandPos = 0
}

// migrate moves a few buckets from the old table (incremental rehash).
func (t *hashTable) migrate() {
	if t.old == nil {
		return
	}
	for n := 0; n < hashMigratePerOp && t.expandPos < len(t.old); n++ {
		for it := t.old[t.expandPos]; it != nil; {
			next := it.hnext
			h := hashKey(it.key)
			idx := int(h & uint64(len(t.primary)-1))
			it.hnext = t.primary[idx]
			t.primary[idx] = it
			it = next
		}
		t.old[t.expandPos] = nil
		t.expandPos++
	}
	if t.expandPos >= len(t.old) {
		t.old = nil
	}
}
