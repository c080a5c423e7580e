package ring

import (
	"fmt"
	"testing"
)

// The ring's layer benchmarks: the client's per-op placement over a
// four-server pool. A lookup is host work only — the model charges it
// no virtual time — so vns/op is 0, reported beside the other layers'.

func benchRing() (*Ring, []string) {
	r := Build(defaultVNodes, []string{"s0", "s1", "s2", "s3"})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%08d", i)
	}
	return r, keys
}

// BenchmarkLookup maps a key to its primary server.
func BenchmarkLookup(b *testing.B) {
	r, keys := benchRing()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Lookup(keys[i%len(keys)]) == "" {
			b.Fatal("empty ring")
		}
	}
	b.ReportMetric(0, "vns/op")
}

// BenchmarkAppendOwners walks a key's two owners (R=2) into a reused
// buffer.
func BenchmarkAppendOwners(b *testing.B) {
	r, keys := benchRing()
	buf := make([]string, 0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = r.AppendOwners(buf[:0], keys[i%len(keys)], 2); len(buf) != 2 {
			b.Fatalf("owners %v", buf)
		}
	}
	b.ReportMetric(0, "vns/op")
}
