// Package symbol implements the dictionary-encoding layer the hot
// paths of the system share: attribute and value strings are interned
// into dense uint32 IDs once, and every subsequent hash, comparison and
// map lookup operates on integers instead of strings — the standard
// move of columnar engines (Abadi et al.) and of the FP-growth
// literature the paper builds on, where items are integer IDs.
//
// Two process-global tables (one for attributes, one for values) serve
// the document, fptree and partition layers. A table is sharded by a
// hash of the string: a lookup takes one shard's read lock, so readers
// of different shards share nothing and readers of one shard do not
// exclude each other; interning a new string takes that shard's write
// lock plus a short table-wide lock that hands out the next ID. A hit
// allocates nothing, whether the key arrives as a string or as bytes
// (InternBytes), and returns the table's own copy of the string, so
// documents share the table's strings instead of owning theirs. IDs
// are dense and assigned in first-use order, so slices indexed by ID
// stay small.
//
// # Epochs
//
// Symbol IDs are only meaningful relative to the table generation that
// produced them. Reset clears the global tables and bumps the global
// epoch; every Document records the epoch its symbols were interned
// under, and the consumers (Classify/Merge, the FP-tree, partition
// tables) fall back to string comparison or re-intern when epochs do
// not match. Reset is a quiesce-point operation: it must only be
// called when no FP-tree, partition table or wire dictionary built
// under the old epoch is still in use — the runtime itself never
// resets mid-run (the tumbling-window lifecycle evicts trees wholesale
// and the wire dictionaries are scoped per connection instead, see
// DESIGN.md "Symbol interning").
package symbol

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// ID is a dense symbol identifier, valid within one table epoch.
type ID uint32

// Pair packs an attribute symbol and a value symbol into one
// comparable word, so a full attribute-value pair hashes and compares
// as a single uint64.
type Pair uint64

// MakePair packs attribute and value IDs.
func MakePair(a, v ID) Pair { return Pair(uint64(a)<<32 | uint64(v)) }

// Attr unpacks the attribute ID.
func (p Pair) Attr() ID { return ID(p >> 32) }

// Val unpacks the value ID.
func (p Pair) Val() ID { return ID(p) }

// shardCount spreads lookups over enough locks that tasks interning
// different strings rarely touch the same one. A power of two.
const shardCount = 64

// shard is one slice of the string -> ID direction, padded to its own
// cache line so read-locking one shard does not invalidate its
// neighbours.
type shard struct {
	mu  sync.RWMutex
	ids map[string]ID
	_   [32]byte // RWMutex is 24 bytes, the map header 8
}

// shardSeed keys the shard hash; one seed for the process, so a string
// and the same bytes always pick the same shard.
var shardSeed = maphash.MakeSeed()

// Table is one string interning dictionary: string -> dense ID and
// back. The zero value is not ready; use NewTable. Lookup, String and
// Len are safe for concurrent use with Intern; Reset requires external
// quiescence (see the package comment).
type Table struct {
	shards [shardCount]shard
	mu     sync.Mutex               // serialises ID assignment
	strs   atomic.Pointer[[]string] // ID -> string
}

// NewTable creates an empty table.
func NewTable() *Table {
	t := &Table{}
	t.reset()
	return t
}

// Intern returns the ID for s, assigning the next dense ID on first
// sight. Safe for concurrent use.
func (t *Table) Intern(s string) ID {
	sh := &t.shards[maphash.String(shardSeed, s)%shardCount]
	sh.mu.RLock()
	id, ok := sh.ids[s]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return t.add(sh, s)
}

// InternBytes is Intern for a key held as bytes, and also returns the
// table's own string for it. A hit allocates nothing; b is copied only
// when it is new to the table.
func (t *Table) InternBytes(b []byte) (ID, string) {
	sh := &t.shards[maphash.Bytes(shardSeed, b)%shardCount]
	sh.mu.RLock()
	id, ok := sh.ids[string(b)] // no allocation: the conversion is only a map key
	sh.mu.RUnlock()
	if !ok {
		id = t.add(sh, string(b))
	}
	// The string was published before its map entry, so it is there.
	return id, t.String(id)
}

// add interns s, which a read of sh just missed.
func (t *Table) add(sh *shard, s string) ID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids[s]; ok {
		return id
	}
	t.mu.Lock()
	strs := *t.strs.Load()
	id := ID(len(strs))
	// Appending may write into the shared backing array one slot past
	// every published length; readers never touch that slot until the
	// new header is atomically published below.
	ns := append(strs, s)
	t.strs.Store(&ns)
	t.mu.Unlock()
	sh.ids[s] = id
	return id
}

// Lookup returns the ID for s without interning it.
func (t *Table) Lookup(s string) (ID, bool) {
	sh := &t.shards[maphash.String(shardSeed, s)%shardCount]
	sh.mu.RLock()
	id, ok := sh.ids[s]
	sh.mu.RUnlock()
	return id, ok
}

// String resolves an ID back to its string; unknown IDs resolve to "".
func (t *Table) String(id ID) string {
	strs := *t.strs.Load()
	if int(id) < len(strs) {
		return strs[id]
	}
	return ""
}

// Len reports the number of interned strings.
func (t *Table) Len() int { return len(*t.strs.Load()) }

// reset clears the table in place. Callers must guarantee quiescence.
func (t *Table) reset() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.ids = make(map[string]ID)
		sh.mu.Unlock()
	}
	t.mu.Lock()
	strs := make([]string, 0, 64)
	t.strs.Store(&strs)
	t.mu.Unlock()
}

// Global tables and epoch. The attribute and value spaces are kept
// separate so both stay dense: slices indexed by attribute ID (probe
// scratch, attribute counts, order ranks) would otherwise be diluted
// by the much larger value space.
var (
	attrTable = NewTable()
	valTable  = NewTable()
	epoch     atomic.Uint64
)

// InternAttr interns an attribute name in the global attribute table.
func InternAttr(s string) ID { return attrTable.Intern(s) }

// InternVal interns a canonical value in the global value table.
func InternVal(s string) ID { return valTable.Intern(s) }

// InternAttrBytes interns an attribute name held as bytes and returns
// the table's string for it (see Table.InternBytes).
func InternAttrBytes(b []byte) (ID, string) { return attrTable.InternBytes(b) }

// InternValBytes interns a canonical value held as bytes and returns
// the table's string for it (see Table.InternBytes).
func InternValBytes(b []byte) (ID, string) { return valTable.InternBytes(b) }

// LookupAttr resolves an attribute name without interning it.
func LookupAttr(s string) (ID, bool) { return attrTable.Lookup(s) }

// LookupVal resolves a canonical value without interning it.
func LookupVal(s string) (ID, bool) { return valTable.Lookup(s) }

// AttrString resolves an attribute ID; unknown IDs resolve to "".
func AttrString(id ID) string { return attrTable.String(id) }

// ValString resolves a value ID; unknown IDs resolve to "".
func ValString(id ID) string { return valTable.String(id) }

// AttrCount reports the number of distinct attributes interned — the
// upper bound for slices indexed by attribute ID.
func AttrCount() int { return attrTable.Len() }

// ValCount reports the number of distinct values interned.
func ValCount() int { return valTable.Len() }

// InternPair interns both halves of an attribute-value pair.
func InternPair(attr, val string) Pair {
	return MakePair(attrTable.Intern(attr), valTable.Intern(val))
}

// LookupPair resolves a pair without interning; ok is false when
// either half is unknown (the pair then cannot be in any interned
// structure).
func LookupPair(attr, val string) (Pair, bool) {
	a, ok := attrTable.Lookup(attr)
	if !ok {
		return 0, false
	}
	v, ok := valTable.Lookup(val)
	if !ok {
		return 0, false
	}
	return MakePair(a, v), true
}

// PairStrings resolves both halves of a pair.
func PairStrings(p Pair) (attr, val string) {
	return attrTable.String(p.Attr()), valTable.String(p.Val())
}

// Epoch returns the current global epoch. IDs obtained under an older
// epoch are invalid against the current tables.
func Epoch() uint64 { return epoch.Load() }

// Reset clears both global tables and bumps the epoch. It is a
// quiesce-point operation: no structure holding IDs of the old epoch
// may be used afterwards. The runtime never calls it mid-run; it
// exists for tests and for embedders that tear the whole pipeline down
// between streams.
func Reset() {
	// Bump the epoch before clearing: a racing reader that still sees
	// the old tables also still sees an epoch it can compare against,
	// and a reader that already sees the new tables observes a new
	// epoch. (Reset is documented quiesce-only; the ordering just keeps
	// misuse detectable instead of silently wrong.)
	epoch.Add(1)
	attrTable.reset()
	valTable.reset()
}
