package memcached

// ItemPlace reports the slab page and host segment holding key's item.
func (s *Store) ItemPlace(key []byte) (page, seg int, ok bool) {
	ok, _ = s.view(key, at(0), func(it *Item) {
		page, seg = s.arena.segment(it.chunk.seg).page, it.chunk.seg
	})
	return page, seg, ok
}

// ClassFree reports the free chunks of the slab class holding key's
// item (-1 when key is not stored).
func (s *Store) ClassFree(key []byte) int {
	class := -1
	s.view(key, at(0), func(it *Item) { class = it.chunk.class })
	if class < 0 {
		return -1
	}
	return s.arena.freeChunks(class)
}
