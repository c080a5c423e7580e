// Package ring is the shared ketama consistent-hash ring: the client
// library's one key→server rule, and the fleet layer's churn-stable
// placement and R-way replication. The layout matches
// libmemcached's ketama (40 md5 digests per server, 4 little-endian
// uint32 points per digest), so promoting the ring out of mcclient did
// not move a single key.
//
// A ring is built whole by Build — every member hashed, one sort — and
// then changes incrementally: AddServer computes and sorts only the
// joining server's points and merges them into the sorted point list in
// one O(n) pass; RemoveServer is a single filter pass. Neither ever re-hashes or
// re-sorts the surviving servers' points, which is what makes O(1000)
// membership churn affordable — and what makes the movement guarantee
// auditable: the only arcs that change owners are the ones the joining
// or leaving server's own points delimit.
//
// Points are ordered by (hash, owner name): the name tiebreak matters at
// fleet scale, where ~160k uint32 points make birthday collisions likely.
// Without it, two servers hashing onto the same point would be ordered by
// insertion history and AddServer/RemoveServer would not round-trip. A
// point names its owner by member index, so it is 8 bytes, not a string
// header beside a hash.
package ring

import (
	"cmp"
	"crypto/md5"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
)

// DefaultVNodes is libmemcached's ketama replica count: 40 md5 digests
// per server, each contributing 4 ring points (160 points per server).
const DefaultVNodes = 40

// Checker-validation mutation switches (see internal/memcached/mut_*.go
// for the registry pattern). They live here because the fleet client
// consults them and this package is imported by both mcclient/cluster
// and memcached without forming a cycle. Both default to false; a tagged
// build flips exactly one via an init() in internal/memcached.
var (
	// MutRingStale makes fleet clients route by the ring snapshot taken
	// at client construction, ignoring every later membership change —
	// the stale-routing bug class the fleet memcheck mode exists to
	// catch (ops land on pre-churn owners, including closed servers).
	MutRingStale bool
	// MutReplicaSkip makes fleet clients silently drop the replica leg
	// of a write-through store, so a primary departure loses the only
	// copy — the replication bug class read-repair cannot mask forever.
	MutReplicaSkip bool
)

// point is one ring position and the member owning the arc ending at it.
type point struct {
	h     uint32
	owner uint32 // index into Ring.names
}

// Ring is a ketama ring over named servers. Not safe for concurrent use;
// callers that share one (the fleet layer) guard it externally.
type Ring struct {
	vnodes  int
	points  []point           // sorted by (h, owner name)
	names   []string          // member index → name
	members map[string]uint32 // name → member index
}

// New returns an empty ring with the given virtual-node count (md5
// digests per server; each digest yields 4 points). vnodes <= 0 takes
// DefaultVNodes.
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]uint32)}
}

// Build returns a ring over names: every member's points hashed, then
// one sort — the ring AddServer would reach adding them one at a time,
// in any order, without its O(n) merge per member. A repeated name is
// one member.
func Build(vnodes int, names []string) *Ring {
	r := New(vnodes)
	pts := make([]point, 0, len(names)*r.vnodes*4)
	for _, name := range names {
		if _, ok := r.members[name]; !ok {
			pts = r.appendPoints(pts, r.addMember(name))
		}
	}
	slices.SortFunc(pts, r.compare)
	r.points = pts
	return r
}

// compare orders points by (hash, owner name) — the name tiebreak keeps
// the ring history-independent when two servers collide on a hash.
func (r *Ring) compare(a, b point) int {
	if a.h != b.h {
		return cmp.Compare(a.h, b.h)
	}
	return cmp.Compare(r.names[a.owner], r.names[b.owner])
}

// addMember records name under the next member index.
func (r *Ring) addMember(name string) uint32 {
	i := uint32(len(r.names))
	r.names = append(r.names, name)
	r.members[name] = i
	return i
}

// appendPoints appends member i's ring points, unsorted.
func (r *Ring) appendPoints(dst []point, i uint32) []point {
	buf := make([]byte, 0, len(r.names[i])+8)
	for rep := 0; rep < r.vnodes; rep++ {
		buf = append(append(buf[:0], r.names[i]...), '-')
		sum := md5.Sum(strconv.AppendInt(buf, int64(rep), 10))
		for part := 0; part < 4; part++ {
			dst = append(dst, point{binary.LittleEndian.Uint32(sum[part*4:]), i})
		}
	}
	return dst
}

// AddServer inserts a server's points. Only the new points are hashed
// and sorted; the existing arcs are merged through untouched. Adding a
// present member is a no-op.
func (r *Ring) AddServer(name string) {
	if _, ok := r.members[name]; ok {
		return
	}
	add := r.appendPoints(make([]point, 0, r.vnodes*4), r.addMember(name))
	slices.SortFunc(add, r.compare)
	merged := make([]point, 0, len(r.points)+len(add))
	i, j := 0, 0
	for i < len(r.points) && j < len(add) {
		if r.compare(add[j], r.points[i]) < 0 {
			merged = append(merged, add[j])
			j++
		} else {
			merged = append(merged, r.points[i])
			i++
		}
	}
	merged = append(merged, r.points[i:]...)
	merged = append(merged, add[j:]...)
	r.points = merged
}

// RemoveServer filters a server's points out in one pass. The last
// member takes the leaver's index, so its points are renamed in the same
// pass. Removing an absent member is a no-op.
func (r *Ring) RemoveServer(name string) {
	gone, ok := r.members[name]
	if !ok {
		return
	}
	last := uint32(len(r.names) - 1)
	delete(r.members, name)
	if gone != last {
		r.names[gone] = r.names[last]
		r.members[r.names[gone]] = gone
	}
	r.names = r.names[:last]
	// Filter into a fresh slice: Clone hands out rings sharing the
	// backing array, so in-place compaction would corrupt snapshots.
	out := make([]point, 0, len(r.points)-r.vnodes*4)
	for _, p := range r.points {
		switch p.owner {
		case gone:
		case last:
			out = append(out, point{p.h, gone})
		default:
			out = append(out, p)
		}
	}
	r.points = out
}

// Size reports the member count.
func (r *Ring) Size() int { return len(r.members) }

// Members lists the servers in sorted order.
func (r *Ring) Members() []string {
	out := slices.Clone(r.names)
	sort.Strings(out)
	return out
}

// keyPoint is the ketama key hash: the first 4 bytes of md5(key),
// little-endian — identical to the original mcclient lookup.
func keyPoint(key string) uint32 {
	sum := md5.Sum([]byte(key))
	return binary.LittleEndian.Uint32(sum[:])
}

// search returns the index of the first point at or after h, wrapped.
func (r *Ring) search(h uint32) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Lookup maps a key to its owning server ("" on an empty ring). A
// one-member ring owns every arc with that member, so it answers without
// hashing the key.
func (r *Ring) Lookup(key string) string {
	if len(r.names) == 1 {
		return r.names[0]
	}
	return r.lookupPoint(keyPoint(key))
}

// lookupPoint maps a raw hash point to its owning server ("" on an
// empty ring).
func (r *Ring) lookupPoint(h uint32) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.names[r.points[r.search(h)].owner]
}

// Owners returns the first n distinct servers walking clockwise from the
// key's point: Owners(key, 1)[0] is the primary, the rest are the
// replica successors. Fewer than n members yields fewer owners.
func (r *Ring) Owners(key string, n int) []string {
	n = min(n, len(r.members))
	if n <= 0 {
		return nil
	}
	return r.AppendOwners(make([]string, 0, n), key, n)
}

// AppendOwners is Owners into a buffer the caller owns: the owners are
// appended to dst, so a per-op caller that passes buf[:0] allocates
// nothing. n is a replication factor — a handful — so the distinctness
// check is a scan of what was appended, not a set.
func (r *Ring) AppendOwners(dst []string, key string, n int) []string {
	n = min(n, len(r.members))
	if n <= 0 {
		return dst
	}
	base := len(dst)
	start := r.search(keyPoint(key))
	for i := 0; i < len(r.points) && len(dst)-base < n; i++ {
		owner := r.names[r.points[(start+i)%len(r.points)].owner]
		if !slices.Contains(dst[base:], owner) {
			dst = append(dst, owner)
		}
	}
	return dst
}

// Clone returns an independent snapshot (the fleet's stale-routing
// mutation and the movement accounting both compare against one).
func (r *Ring) Clone() *Ring {
	c := &Ring{
		vnodes:  r.vnodes,
		points:  slices.Clone(r.points),
		names:   slices.Clone(r.names),
		members: make(map[string]uint32, len(r.members)),
	}
	for m, i := range r.members {
		c.members[m] = i
	}
	return c
}

// Equal reports whether two rings have identical points and membership
// (the AddServer/RemoveServer round-trip property). Member indexes are
// bookkeeping: points compare by hash and owner name.
func (r *Ring) Equal(o *Ring) bool {
	if len(r.points) != len(o.points) || len(r.names) != len(o.names) {
		return false
	}
	for i, p := range r.points {
		if q := o.points[i]; p.h != q.h || r.names[p.owner] != o.names[q.owner] {
			return false
		}
	}
	for m := range r.members {
		if _, ok := o.members[m]; !ok {
			return false
		}
	}
	return true
}

// MovedFraction measures exactly what fraction of the 2^32 hash space
// maps to a different primary owner in r than in prev — the key-movement
// accounting API. It walks the union of both rings' boundary points:
// between consecutive boundaries neither ring changes owner, so one
// lookup per segment suffices, O((n+m) log(n+m)) total. Two empty rings
// move nothing; empty↔non-empty moves everything.
func (r *Ring) MovedFraction(prev *Ring) float64 {
	if len(r.points) == 0 && len(prev.points) == 0 {
		return 0
	}
	if len(r.points) == 0 || len(prev.points) == 0 {
		return 1
	}
	bounds := make([]uint32, 0, len(r.points)+len(prev.points))
	for _, p := range r.points {
		bounds = append(bounds, p.h)
	}
	for _, p := range prev.points {
		bounds = append(bounds, p.h)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	// Dedup in place.
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	const space = float64(1 << 32)
	moved := 0.0
	// Interior segments (b[i-1], b[i]]: owner decided at b[i].
	for i := 1; i < len(uniq); i++ {
		if r.lookupPoint(uniq[i]) != prev.lookupPoint(uniq[i]) {
			moved += float64(uniq[i] - uniq[i-1])
		}
	}
	// Wrap segment (b[last], 2^32) ∪ [0, b[0]]: every hash here maps to
	// each ring's first point, which is also what b[0] maps to (b[0] is
	// the global minimum boundary).
	if r.lookupPoint(uniq[0]) != prev.lookupPoint(uniq[0]) {
		moved += space - float64(uniq[len(uniq)-1]) + float64(uniq[0])
	}
	return moved / space
}
