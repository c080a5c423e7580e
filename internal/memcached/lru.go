package memcached

// lruTable is the store's per-class LRU state: an intrusive
// doubly-linked list per slab class, ordered most- to least-recently
// used, one per class for the whole store as in the memcached
// generation the paper modified. Eviction walks a class's tail
// whichever lock stripe the victim's key hashes to: the stripes model
// lock waits, not ownership.
type lruTable struct {
	classes []lruClass
}

// lruClass is one size class's list head and tail.
type lruClass struct {
	head, tail *item
}

func newLRUTable(numClasses int) *lruTable {
	return &lruTable{classes: make([]lruClass, numClasses)}
}

// insert puts it at the head (most recent) of its class list.
func (l *lruTable) insert(it *item) {
	cl := &l.classes[it.chunk.class]
	it.lprev = nil
	it.lnext = cl.head
	if cl.head != nil {
		cl.head.lprev = it
	}
	cl.head = it
	if cl.tail == nil {
		cl.tail = it
	}
}

// remove unlinks it from its class list.
func (l *lruTable) remove(it *item) {
	cl := &l.classes[it.chunk.class]
	if it.lprev != nil {
		it.lprev.lnext = it.lnext
	} else if cl.head == it {
		cl.head = it.lnext
	}
	if it.lnext != nil {
		it.lnext.lprev = it.lprev
	} else if cl.tail == it {
		cl.tail = it.lprev
	}
	it.lprev, it.lnext = nil, nil
}

// touch moves it to the head of its class list.
func (l *lruTable) touch(it *item) {
	l.remove(it)
	l.insert(it)
}

// victim walks up to maxTries items from the tail of class ci,
// returning the first unpinned candidate.
func (l *lruTable) victim(ci, maxTries int) *item {
	it := l.classes[ci].tail
	for tries := 0; it != nil && tries < maxTries; tries++ {
		if !it.pinned() {
			return it
		}
		it = it.lprev
	}
	return nil
}

// classItems counts linked items in class ci (an LRU walk; stats path).
func (l *lruTable) classItems(ci int) int {
	n := 0
	for it := l.classes[ci].head; it != nil; it = it.lnext {
		n++
	}
	return n
}
