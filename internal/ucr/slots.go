package ucr

// slots is the table of in-flight work requests, keyed by WR id, in
// place of a map: an id comes back once, in its completion, so it can be
// the entry's index plus a generation. A stale id (its entry since
// reused), an already-taken one and one this table never issued all
// miss.
type slots[T any] struct {
	ents []slotEnt[T]
	free []uint32
}

type slotEnt[T any] struct {
	gen  uint32
	live bool
	v    T
}

// put files v and returns its id.
func (s *slots[T]) put(v T) uint64 {
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint32(len(s.ents))
		s.ents = append(s.ents, slotEnt[T]{})
	}
	e := &s.ents[i]
	e.gen++
	e.live, e.v = true, v
	return uint64(e.gen)<<32 | uint64(i)
}

// take removes and returns the entry filed under id.
func (s *slots[T]) take(id uint64) (v T, ok bool) {
	i := uint32(id)
	if int(i) >= len(s.ents) {
		return v, false
	}
	e := &s.ents[i]
	if !e.live || e.gen != uint32(id>>32) {
		return v, false
	}
	v = e.v
	var zero T
	e.live, e.v = false, zero
	s.free = append(s.free, i)
	return v, true
}
