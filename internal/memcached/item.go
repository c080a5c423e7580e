// Package memcached implements the key-value cache engine and server:
// a slab allocator with per-class LRU eviction, a hash table with
// incremental expansion, lazy expiry, CAS, the memcached text protocol,
// and a server with a libevent-style dispatcher and worker threads.
//
// Two frontends serve the same engine, mirroring the paper's design goal
// of one server that speaks to both kinds of clients (§V-A):
//
//   - the sockets frontend: the unmodified text protocol over any
//     byte-stream transport (internal/sockstream or a real net.Conn);
//   - the UCR frontend: the paper's active-message protocol (§V-B/V-C),
//     where a Set's value is pulled from the client with RDMA Read
//     directly into slab memory, and a Get's reply carries the value
//     eagerly (≤ 8 KB) or exposes it for the client's RDMA Read.
package memcached

import (
	"repro/internal/simnet"
)

// item is one cache entry. Its key and value bytes live only in its
// slab chunk, key first; the struct carries their lengths, the metadata
// and the hash-chain and LRU links (intrusive, like memcached's
// _stritem).
type item struct {
	chunk chunk // slab residency: [key][value] from chunk.buf[0]

	flags    uint32
	nbytes   uint32      // value length
	expireAt simnet.Time // 0: never
	casID    uint64
	setAt    simnet.Time
	// exptimeRaw is the protocol exptime the expiry was computed from;
	// kept so deferred-commit paths (UCR set) can emit a complete
	// OpRecord without re-plumbing the request through the pin.
	exptimeRaw int64

	refcount int32 // pins against eviction while a transfer is in flight
	linked   bool
	nkey     uint8 // key length (≤ maxKeyLen)

	hnext *item // hash chain

	lprev, lnext *item // LRU list (per slab class)
}

// key is the item's key, in its chunk.
func (it *item) key() []byte { return it.chunk.buf[:it.nkey] }

// value is the item's value, in its chunk after the key.
func (it *item) value() []byte { return it.chunk.buf[it.nkey : int(it.nkey)+int(it.nbytes)] }

// expired reports whether the item is past its expiry, or was created
// before the last flush_all horizon.
func (it *item) expired(now, flushBefore simnet.Time) bool {
	if it.expireAt != 0 && it.expireAt <= now {
		return true
	}
	return flushBefore != 0 && it.setAt < flushBefore
}

// pinned reports whether a transfer holds the item.
func (it *item) pinned() bool { return it.refcount > 0 }
