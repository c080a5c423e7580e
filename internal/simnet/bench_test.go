package simnet

import "testing"

// BenchmarkResourceAcquire books a monotone caller with idle time
// between bookings, as a depth-1 client's link sees: every call
// remembers one idle gap. vns/op is the virtual time each booking holds
// the resource.
func BenchmarkResourceAcquire(b *testing.B) {
	r := NewResource("bench")
	var at Time
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at += 1000
		r.Acquire(at, 100)
	}
	busy, uses := r.Stats()
	b.ReportMetric(float64(busy)/float64(uses), "vns/op")
}

// BenchmarkMailboxPutTryRecv hands one message through a mailbox an
// actor owns, so every Put runs the link onto the ready list. vns/op is
// zero: a hand-off charges no virtual time.
func BenchmarkMailboxPutTryRecv(b *testing.B) {
	ex := NewNetwork().Executor()
	m := NewMailboxOn[stamped](ex)
	m.SetOwner(ex.NewActor(func() {}), nil, stampOf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Put(stamped{at: Time(i)})
		if _, ok, _ := m.TryRecv(); !ok {
			b.Fatal("mailbox lost a message")
		}
	}
	b.ReportMetric(0, "vns/op")
}
