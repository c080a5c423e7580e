package memcached

// ItemPlace reports the slab page and host segment holding key's item.
func (s *Store) ItemPlace(key []byte) (page, seg int, ok bool) {
	ok, _ = s.View(key, At(0), func(it *Item) {
		page, seg = s.arena.segment(it.chunk.seg).page, it.chunk.seg
	})
	return page, seg, ok
}
