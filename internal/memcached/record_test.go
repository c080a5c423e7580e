package memcached

import (
	"bytes"
	"testing"
)

// TestRecordsSurviveChunkReuse: an item's key and value live only in
// its chunk, so a history record must copy them out. Key "aa" is stored
// the way the UCR frontend stores (its value lands in the chunk and the
// commit's record reads it back from there), then leaves — deleted, or
// evicted under a one-page limit — and a same-class key "bb" takes its
// chunk and overwrites it. aa's set, delete and evict records must still
// read aa's key and value.
func TestRecordsSurviveChunkReuse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int64
		vlen  func(*Store) int
		leave OpKind
	}{
		{"delete", 64 << 20, func(*Store) int { return 100 }, RecDelete},
		{"evict", 1 << 20, topClassValueLen, RecEvict},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(StoreConfig{MemoryLimit: tc.limit})
			var recs []*OpRecord
			s.SetRecorder(func(r *OpRecord) { recs = append(recs, r) })
			vlen := tc.vlen(s)
			valA, valB := bytes.Repeat([]byte("A"), vlen), bytes.Repeat([]byte("B"), vlen)

			it, res := s.allocateItem([]byte("aa"), 0, 0, vlen, 0)
			if res != Stored {
				t.Fatalf("allocateItem aa = %s", res)
			}
			copy(it.value(), valA)
			s.commitItem(it, at(0))
			chunkA := &it.chunk.buf[0]
			if tc.leave == RecDelete && !s.delete([]byte("aa"), at(1)) {
				t.Fatal("delete aa missed")
			}
			if res := s.Set("bb", 0, 0, valB, 2); res != Stored {
				t.Fatalf("Set bb = %s", res)
			}
			var chunkB *byte
			s.view([]byte("bb"), at(3), func(it *item) { chunkB = &it.chunk.buf[0] })
			if chunkB != chunkA {
				t.Fatal("bb did not take aa's chunk; the test reuses nothing")
			}

			seen := map[OpKind]bool{}
			for _, r := range recs {
				if r.Key != "aa" {
					continue
				}
				seen[r.Kind] = true
				switch r.Kind {
				case RecSet:
					if !bytes.Equal(r.Value, valA) {
						t.Errorf("aa's set record reads value %.8q…, want %.8q…", r.Value, valA)
					}
				case RecEvict:
					if !bytes.Equal(r.OldValue, valA) {
						t.Errorf("aa's evict record reads value %.8q…, want %.8q…", r.OldValue, valA)
					}
				}
			}
			if !seen[RecSet] || !seen[tc.leave] {
				t.Errorf("records keyed aa: %v, want %s and %s records", seen, RecSet, tc.leave)
			}
		})
	}
}
