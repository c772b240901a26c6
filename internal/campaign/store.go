// Store: the persistence stage of the plan → execute → store
// architecture. Campaign results are content-addressed by their plan
// key (binary digest + campaign options + shard + order), so any
// execution of the same plan — a patch-driver fixed point re-verifying
// its final binary, a re-run experiment suite, a warm second `r2r
// patch` invocation — is answered from the store instead of
// re-simulated. Every entry, whatever its order, carries one outcome
// per injection.
package campaign

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/fault"
)

// Entry is one stored stage result: the outcome of every injection of
// one plan stage, in shard-local order, plus the digests and oracles
// that gate its reuse. SeqDigest is empty for an order-1 entry and
// digests the sequence list of a multi-fault stage (order 2 or 3).
// MarshalJSON and UnmarshalJSON define the on-disk layout (see
// entryJSON).
type Entry struct {
	Schema       int
	Key          string
	FaultsDigest string
	SeqDigest    string

	GoodOracle fault.Observable
	BadOracle  fault.Observable
	Limit      uint64

	Outcomes []fault.Outcome
}

// entryJSON is an Entry's on-disk layout at planSchema 6: the header,
// then the outcome column, one outcomeLetters letter per injection in
// shard-local order.
type entryJSON struct {
	Schema       int              `json:"schema"`
	Key          string           `json:"key"`
	FaultsDigest string           `json:"faults_digest"`
	GoodOracle   fault.Observable `json:"good_oracle"`
	BadOracle    fault.Observable `json:"bad_oracle"`
	Limit        uint64           `json:"injection_step_limit"`
	SeqDigest    string           `json:"seq_digest,omitempty"`
	Outcomes     string           `json:"outcomes"`
}

// outcomeLetters spells the outcome column: the letter at index o
// stands for fault.Outcome(o).
const outcomeLetters = "iScd"

// errBadEntry marks a store document that breaks the entry layout;
// Lookup treats it as absent.
var errBadEntry = errors.New("campaign: malformed store entry")

// MarshalJSON renders the entry in its on-disk layout.
func (e Entry) MarshalJSON() ([]byte, error) {
	letters := make([]byte, len(e.Outcomes))
	for i, o := range e.Outcomes {
		if int(o) >= len(outcomeLetters) {
			return nil, fmt.Errorf("%w: outcome %d", errBadEntry, o)
		}
		letters[i] = outcomeLetters[o]
	}
	return json.Marshal(&entryJSON{
		Schema: e.Schema, Key: e.Key, FaultsDigest: e.FaultsDigest,
		GoodOracle: e.GoodOracle, BadOracle: e.BadOracle, Limit: e.Limit,
		SeqDigest: e.SeqDigest, Outcomes: string(letters),
	})
}

// UnmarshalJSON parses the on-disk layout. A document with a field the
// layout does not have (such as an evidence column of an earlier
// schema), with trailing data, or with a letter outside outcomeLetters
// is an error, never a partial entry.
func (e *Entry) UnmarshalJSON(data []byte) error {
	var w entryJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	if len(bytes.Trim(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return fmt.Errorf("%w: data after the entry", errBadEntry)
	}
	out := Entry{
		Schema: w.Schema, Key: w.Key, FaultsDigest: w.FaultsDigest, SeqDigest: w.SeqDigest,
		GoodOracle: w.GoodOracle, BadOracle: w.BadOracle, Limit: w.Limit,
	}
	if n := len(w.Outcomes); n > 0 {
		out.Outcomes = make([]fault.Outcome, n)
		for i := 0; i < n; i++ {
			o := strings.IndexByte(outcomeLetters, w.Outcomes[i])
			if o < 0 {
				return fmt.Errorf("%w: outcome letter %q", errBadEntry, w.Outcomes[i])
			}
			out.Outcomes[i] = fault.Outcome(o)
		}
	}
	*e = out
	return nil
}

// CacheStats counts how a run's work was answered. Hits/Misses count
// stage store lookups; Resimulated counts the order-1 injections
// simulated because no entry answered them. Reused is always zero: it
// remains only for bench/layers' patch probe. WriteErrors counts store
// entries that failed to persist — results are unaffected, but a later
// run will re-execute those plans instead of replaying them.
type CacheStats struct {
	Hits        int `json:"hits"`
	Misses      int `json:"misses"`
	Reused      int `json:"reused,omitempty"`
	Resimulated int `json:"resimulated,omitempty"`
	WriteErrors int `json:"write_errors,omitempty"`
}

// Add accumulates another stats record.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Reused += o.Reused
	s.Resimulated += o.Resimulated
	s.WriteErrors += o.WriteErrors
}

// DefaultMemEntries is the in-memory entry cap of a disk-backed store.
// A corpus-scale warm run touches every campaign of every binary; the
// cap keeps the hot entries resident and lets the rest live on disk
// (the source of truth) instead of accumulating every campaign of the
// run in RAM.
const DefaultMemEntries = 512

// Store is a content-addressed campaign result cache: a bounded
// in-memory LRU map, mirrored to one JSON file per key under a
// directory when one is configured (`r2r ... -cache-dir`), so results
// persist across processes. Evicted entries survive on disk and are
// transparently re-read on the next Lookup; results are identical with
// any cap, only re-read (or, for a purely in-memory store,
// re-execution) cost changes. Safe for concurrent use.
type Store struct {
	dir   string
	limit int // max in-memory entries; <= 0 means unbounded

	mu  sync.Mutex
	mem map[string]*list.Element // key → element; Value is *memEntry
	lru *list.List               // front = most recently used

	// Lifetime counters, atomic so Stats() can be read while shards
	// execute (Lookup/Save run concurrently from worker goroutines).
	hits, misses, saves atomic.Int64
}

// StoreStats is a point-in-time snapshot of a store's lifetime
// counters: lookups answered (from memory or disk), lookups that found
// nothing usable, and entries saved. Unlike CacheStats — per-run
// accounting that also knows when a returned entry was rejected as
// stale — these are raw store-level counts across every run sharing
// the store.
type StoreStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Saves  int64 `json:"saves"`
}

// Stats snapshots the store's lifetime counters. Safe to call at any
// time, including while campaigns execute against the store.
func (st *Store) Stats() StoreStats {
	return StoreStats{
		Hits:   st.hits.Load(),
		Misses: st.misses.Load(),
		Saves:  st.saves.Load(),
	}
}

// memEntry is one resident cache entry.
type memEntry struct {
	key string
	e   *Entry
}

// NewStore opens (creating if needed) a store backed by dir; an empty
// dir means in-memory only. Disk-backed stores cap their resident set
// at DefaultMemEntries (disk stays the source of truth); purely
// in-memory stores stay unbounded, since evicting their entries would
// discard results outright. NewStoreCapped overrides either default.
func NewStore(dir string) (*Store, error) {
	limit := 0
	if dir != "" {
		limit = DefaultMemEntries
	}
	return NewStoreCapped(dir, limit)
}

// NewStoreCapped opens a store with an explicit in-memory entry cap
// (<= 0 means unbounded). Capping an in-memory-only store is allowed —
// evicted results are simply re-executed later — but the usual callers
// are disk-backed stores bounding their resident set.
func NewStoreCapped(dir string, memEntries int) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("campaign: cache dir: %w", err)
		}
	}
	return &Store{
		dir:   dir,
		limit: memEntries,
		mem:   make(map[string]*list.Element),
		lru:   list.New(),
	}, nil
}

// MemEntries reports the resident in-memory entry count.
func (st *Store) MemEntries() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// insert makes an entry resident (most recently used) and evicts the
// coldest entries beyond the cap. Callers hold st.mu.
func (st *Store) insert(key string, e *Entry) {
	if el, ok := st.mem[key]; ok {
		el.Value.(*memEntry).e = e
		st.lru.MoveToFront(el)
	} else {
		st.mem[key] = st.lru.PushFront(&memEntry{key: key, e: e})
	}
	for st.limit > 0 && st.lru.Len() > st.limit {
		coldest := st.lru.Back()
		st.lru.Remove(coldest)
		delete(st.mem, coldest.Value.(*memEntry).key)
	}
}

// path maps a key to its backing file.
func (st *Store) path(key string) string {
	return filepath.Join(st.dir, key+".json")
}

// Lookup returns the stored entry for a plan key, consulting memory
// first and then the backing directory. A malformed or
// schema-mismatched file is treated as absent, never as an error: a
// cache can only decline to help. Hit/miss accounting lives with the
// executor (CacheStats), which also knows when a returned entry was
// rejected as stale.
func (st *Store) Lookup(key string) (*Entry, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.mem[key]; ok {
		st.lru.MoveToFront(el)
		st.hits.Add(1)
		return el.Value.(*memEntry).e, true
	}
	if st.dir != "" {
		data, err := os.ReadFile(st.path(key))
		if err == nil {
			// UnmarshalJSON validates the document itself; going through
			// json.Unmarshal would only scan it once more.
			var e Entry
			if e.UnmarshalJSON(data) == nil && e.Schema == planSchema && e.Key == key {
				st.insert(key, &e)
				st.hits.Add(1)
				return &e, true
			}
		}
	}
	st.misses.Add(1)
	return nil, false
}

// Save records an entry under its key: in memory, so subsequent
// Lookups hit, and then, for a disk-backed store, on disk before it
// returns (writeFile: temp file + rename). A failed write returns its
// error but leaves the in-memory entry in place; the run's results are
// unaffected, and only a later process re-executes the plan.
func (st *Store) Save(e *Entry) error {
	e.Schema = planSchema
	st.saves.Add(1)
	st.mu.Lock()
	st.insert(e.Key, e)
	st.mu.Unlock()
	if st.dir == "" {
		return nil
	}
	return st.writeFile(e)
}

// writeFile persists one entry atomically (temp file + rename), so a
// crashed or racing process never leaves a half-written entry that
// Lookup could misread.
func (st *Store) writeFile(e *Entry) error {
	data, err := e.MarshalJSON()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, "entry-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), st.path(e.Key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Close is a no-op: Save is synchronous, so nothing is ever pending.
// The method remains only for bench/layers' store probe.
func (st *Store) Close() {}

// errStale marks a store entry that no longer matches the session it
// would be zipped against (enumeration drift, oracle change); callers
// treat it as a miss.
var errStale = errors.New("campaign: stale cache entry")
