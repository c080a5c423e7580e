package ucr

import "testing"

// inFlight counts the context's posted work requests of one kind.
func (c *Context) inFlight(kind wrKind) int {
	n := 0
	for _, e := range c.posted.ents {
		if e.live && e.v.kind == kind {
			n++
		}
	}
	return n
}

// TestSlotsMisses pins the property Context.dispatch leans on now that
// every work request shares one table: an id finds its entry exactly
// once, and a stale id (the slot since reused), an already-taken one and
// one the table never issued all miss without disturbing a live entry.
func TestSlotsMisses(t *testing.T) {
	var s slots[string]
	a, b := s.put("a"), s.put("b")
	if a == b {
		t.Fatalf("two live entries share id %#x", a)
	}
	if v, ok := s.take(a); !ok || v != "a" {
		t.Fatalf("take(a) = %q, %v", v, ok)
	}
	a2 := s.put("a2") // reuses a's slot under a new generation
	if uint32(a2) != uint32(a) || a2 == a {
		t.Fatalf("reuse: id %#x after %#x, want same index, new generation", a2, a)
	}
	for _, tc := range []struct {
		name string
		id   uint64
	}{
		{"already taken, slot reused (stale)", a},
		{"zero", 0},
		{"counter-style small id", 7},
		{"index out of range", uint64(1)<<32 | 99},
		{"live index, future generation", a2 + 1<<32},
		{"live index, generation 0", uint64(uint32(b))},
		{"all ones", ^uint64(0)},
	} {
		if v, ok := s.take(tc.id); ok {
			t.Errorf("%s: take(%#x) hit %q", tc.name, tc.id, v)
		}
	}
	if v, ok := s.take(b); !ok || v != "b" {
		t.Fatalf("take(b) after the misses = %q, %v", v, ok)
	}
	if _, ok := s.take(b); ok {
		t.Fatal("take(b) hit twice")
	}
	if v, ok := s.take(a2); !ok || v != "a2" {
		t.Fatalf("take(a2) = %q, %v", v, ok)
	}
	// Every slot is free again and is reused before the table grows.
	for i := 0; i < 8; i++ {
		id := s.put("x")
		if _, ok := s.take(id); !ok {
			t.Fatalf("round %d: fresh id %#x missed", i, id)
		}
	}
	if len(s.ents) != 2 {
		t.Fatalf("table grew to %d entries for at most 2 live", len(s.ents))
	}
}
