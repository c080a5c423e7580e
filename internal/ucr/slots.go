package ucr

// slots is a table of in-flight work requests keyed by WR id, in place
// of a map: an id comes back once, in its completion, so it can be the
// entry's index plus a generation. slotBit keeps these ids apart from
// the counter-issued ones (Context.wrID) that key the context's maps; an
// unknown, foreign or already-taken id misses.
type slots[T any] struct {
	ents []slotEnt[T]
	free []uint32
}

type slotEnt[T any] struct {
	gen  uint32
	live bool
	v    T
}

const (
	slotBit = 1 << 63
	genMask = 1<<31 - 1
)

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
	e.gen = (e.gen + 1) & genMask
	e.live, e.v = true, v
	return slotBit | uint64(e.gen)<<32 | uint64(i)
}

// take removes and returns the entry filed under id.
func (s *slots[T]) take(id uint64) (v T, ok bool) {
	i := uint32(id)
	if id&slotBit == 0 || int(i) >= len(s.ents) {
		return v, false
	}
	e := &s.ents[i]
	if !e.live || uint64(e.gen) != id>>32&genMask {
		return v, false
	}
	v = e.v
	var zero T
	e.live, e.v = false, zero
	s.free = append(s.free, i)
	return v, true
}
