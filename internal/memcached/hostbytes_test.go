package memcached

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

// liveHeap is the live heap after full collections: two, so what an
// earlier test left in a sync.Pool is gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// storeHeap is the live heap, per item, of a fresh store holding items
// values of vlen bytes: the least of three fills, so a stray allocation
// elsewhere in the process does not count.
func storeHeap(t *testing.T, items, vlen int) float64 {
	value := make([]byte, vlen)
	key := make([]byte, 0, maxKeyLen)
	least := math.Inf(1)
	for range 3 {
		before := liveHeap()
		s := NewStore(StoreConfig{})
		for i := 0; i < items; i++ {
			key = strconv.AppendInt(append(key[:0], "item-"...), int64(i), 10)
			if res := s.store(StoreOpSet, key, 0, 0, value, 0, at(0)); res != Stored {
				t.Fatalf("%d B values: set %s = %s", vlen, key, res)
			}
		}
		least = min(least, float64(liveHeap()-before)/float64(items))
		runtime.KeepAlive(s)
	}
	return least
}

// TestItemHostBytes bounds the host heap one stored item holds, at
// three value sizes, 4 096 items each in a fresh store. An item's host
// bytes are its 112 B header plus its key and value, packed in its
// segment at the host stride (its class size less the modeled 48 B
// header, which the host never makes), plus its share of the hash table
// and of the store's fixed structures. A second copy of the key, a
// header field per byte slice, or host bytes for the modeled header
// each cross the bound, which is the measured value plus 8 B.
func TestItemHostBytes(t *testing.T) {
	for _, tc := range []struct {
		vlen  int
		bound float64 // B per item
	}{
		// Measured 231.3, 466.1 and 4664.4 B; 335.4, 577.2 and 4980.3 B
		// when an item also kept its key in a Go string, its value in a
		// slice field and host bytes for the modeled header.
		{64, 239},
		{256, 474},
		{4 << 10, 4672},
	} {
		per := storeHeap(t, 4096, tc.vlen)
		t.Logf("%d B values: %.1f B of host heap per item", tc.vlen, per)
		if per > tc.bound {
			t.Errorf("%d B values: %.1f B of host heap per item, want <= %.0f", tc.vlen, per, tc.bound)
		}
	}
}
