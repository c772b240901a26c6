// Store: the persistence stage of the plan → execute → store
// architecture. Campaign results are content-addressed by their plan
// key (binary digest + campaign options + shard + order), so any
// execution of the same plan — a patch-driver fixed point re-verifying
// its final binary, a re-run experiment suite, a warm second `r2r
// patch` invocation — is answered from the store instead of
// re-simulated. Entries carry the per-fault simulation records
// (footprint pages, step counts), so a stored campaign also rehydrates
// the cross-binary Memo the incremental executor uses for partial
// reuse after a patch round.
package campaign

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/r2r/reinforce/internal/fault"
)

// Record is the stored evidence behind one fault's outcome — the
// serialized form of a fault.SimRecord. Pages is the run's code
// footprint; Steps/LimitHit qualify the outcome against a different
// injection step budget (see Memo.lookup for the reuse rule).
type Record struct {
	Outcome  fault.Outcome `json:"outcome"`
	Steps    uint64        `json:"steps,omitempty"`
	LimitHit bool          `json:"limit_hit,omitempty"`
	Pages    []uint64      `json:"pages,omitempty"`
}

// Entry is one stored campaign result: the outcome of every injection
// of one plan, in shard-local order, plus the digests and oracles that
// gate its reuse. An order-1 entry carries per-fault Records; a
// multi-fault stage's entry (order 2 or 3) carries its sequence list's
// digest and one outcome column instead.
type Entry struct {
	Schema       int    `json:"schema"`
	Key          string `json:"key"`
	FaultsDigest string `json:"faults_digest"`

	GoodOracle fault.Observable `json:"good_oracle"`
	BadOracle  fault.Observable `json:"bad_oracle"`
	Limit      uint64           `json:"injection_step_limit"`

	Records []Record `json:"records"`

	SeqDigest string          `json:"seq_digest,omitempty"`
	Outcomes  []fault.Outcome `json:"outcomes,omitempty"`
}

// CacheStats counts how a run's work was answered. Hits/Misses count
// whole-campaign store lookups; Reused/Resimulated count individual
// injections inside a miss that the incremental Memo could and could
// not answer (on a store hit nothing is simulated, so all four stay
// meaningful side by side). WriteErrors counts store entries that
// failed to persist — results are unaffected, but a later run will
// re-execute those plans instead of replaying them.
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

	// Singleflight state: concurrent Acquire calls for one plan key
	// elect a single computing leader; the rest wait for its commit.
	flightMu sync.Mutex
	inflight map[string]*flight

	// Write-behind state (see EnableWriteBehind). pending holds
	// entries accepted by Save but not yet persisted, deduped by key;
	// order preserves first-enqueue order for the flusher.
	wbMu       sync.Mutex
	wbEnabled  bool
	wbBatch    int
	wbInterval time.Duration
	pending    map[string]*Entry
	pendingKey []string
	wbKick     chan struct{}
	wbStop     chan struct{}
	wbDone     chan struct{}
	writeErrs  atomic.Int64
}

// flight is one in-progress computation of a plan key's entry. done is
// closed at commit; e is the committed entry (nil when the leader
// abandoned the flight).
type flight struct {
	done chan struct{}
	e    *Entry
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

	// WriteErrors counts write-behind flushes that failed to persist
	// an entry (results unaffected; the plan re-executes next run).
	WriteErrors int64 `json:"write_errors,omitempty"`
}

// Stats snapshots the store's lifetime counters. Safe to call at any
// time, including while campaigns execute against the store.
func (st *Store) Stats() StoreStats {
	return StoreStats{
		Hits:        st.hits.Load(),
		Misses:      st.misses.Load(),
		Saves:       st.saves.Load(),
		WriteErrors: st.writeErrs.Load(),
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
		dir:      dir,
		limit:    memEntries,
		mem:      make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*flight),
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
			var e Entry
			if json.Unmarshal(data, &e) == nil && e.Schema == planSchema && e.Key == key {
				st.insert(key, &e)
				st.hits.Add(1)
				return &e, true
			}
		}
	}
	st.misses.Add(1)
	return nil, false
}

// Save records an entry under its key, in memory and (when configured)
// on disk. The memory insert is always synchronous, so subsequent
// Lookups hit. The disk write is synchronous and atomic (temp file +
// rename) by default; with write-behind enabled (EnableWriteBehind) it
// is deferred to the flusher and Save never blocks on I/O.
func (st *Store) Save(e *Entry) error {
	e.Schema = planSchema
	st.saves.Add(1)
	st.mu.Lock()
	st.insert(e.Key, e)
	dir := st.dir
	st.mu.Unlock()
	if dir == "" {
		return nil
	}
	st.wbMu.Lock()
	if st.wbEnabled {
		if _, queued := st.pending[e.Key]; !queued {
			st.pendingKey = append(st.pendingKey, e.Key)
		}
		st.pending[e.Key] = e
		kick := len(st.pending) >= st.wbBatch
		st.wbMu.Unlock()
		if kick {
			select {
			case st.wbKick <- struct{}{}:
			default:
			}
		}
		return nil
	}
	st.wbMu.Unlock()
	return st.writeFile(e)
}

// writeFile persists one entry atomically (temp file + rename), so a
// crashed or racing process never leaves a half-written entry that
// Lookup could misread.
func (st *Store) writeFile(e *Entry) error {
	data, err := json.Marshal(e)
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

// Acquire is the singleflight entry point concurrent corpus cells use:
// it either returns the stored entry (commit == nil), or elects the
// caller the key's computing leader and returns a commit function the
// leader must invoke exactly once — with the computed entry to Save
// and release the waiters (commit returns the Save error), or with nil
// to abandon the flight (waiters then re-race for leadership, so a
// failed leader never wedges a key). Concurrent Acquires of one key
// thus cost one computation total.
func (st *Store) Acquire(key string) (*Entry, func(*Entry) error) {
	for {
		st.flightMu.Lock()
		if f, ok := st.inflight[key]; ok {
			st.flightMu.Unlock()
			<-f.done
			if f.e != nil {
				st.hits.Add(1)
				return f.e, nil
			}
			continue
		}
		// No flight in progress: consult the cache while still holding
		// the flight lock, so a committing leader cannot slip between
		// our miss and our own leadership claim.
		if e, ok := st.Lookup(key); ok {
			st.flightMu.Unlock()
			return e, nil
		}
		f := &flight{done: make(chan struct{})}
		st.inflight[key] = f
		st.flightMu.Unlock()
		commit := func(e *Entry) error {
			var err error
			if e != nil {
				err = st.Save(e)
			}
			st.flightMu.Lock()
			delete(st.inflight, key)
			f.e = e
			st.flightMu.Unlock()
			close(f.done)
			return err
		}
		return nil, commit
	}
}

// EnableWriteBehind switches a disk-backed store to asynchronous
// batched persistence: Save queues entries (deduped by key, newest
// wins) and a flusher goroutine writes them out when the batch reaches
// maxBatch entries or interval elapses, whichever comes first
// (defaults: 16 entries, 100ms). Failed writes count into
// Stats().WriteErrors instead of surfacing from Save. Call Flush or
// Close before reading the directory from another process. No-op on
// an in-memory store or when already enabled.
func (st *Store) EnableWriteBehind(maxBatch int, interval time.Duration) {
	if maxBatch <= 0 {
		maxBatch = 16
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	st.wbMu.Lock()
	defer st.wbMu.Unlock()
	if st.dir == "" || st.wbEnabled {
		return
	}
	st.wbEnabled = true
	st.wbBatch = maxBatch
	st.wbInterval = interval
	st.pending = make(map[string]*Entry)
	st.wbKick = make(chan struct{}, 1)
	st.wbStop = make(chan struct{})
	st.wbDone = make(chan struct{})
	go st.flusher()
}

// flusher is the write-behind drain loop: flush on batch-size kicks,
// on the interval tick, and once more on Close.
func (st *Store) flusher() {
	defer close(st.wbDone)
	ticker := time.NewTicker(st.wbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-st.wbKick:
			st.flushPending()
		case <-ticker.C:
			st.flushPending()
		case <-st.wbStop:
			st.flushPending()
			return
		}
	}
}

// flushPending grabs the queued batch and persists it outside the
// queue lock; write failures count into writeErrs. Safe to call from
// any goroutine — concurrent calls drain disjoint batches.
func (st *Store) flushPending() {
	st.wbMu.Lock()
	keys := st.pendingKey
	st.pendingKey = nil
	batch := make([]*Entry, 0, len(keys))
	for _, k := range keys {
		batch = append(batch, st.pending[k])
		delete(st.pending, k)
	}
	st.wbMu.Unlock()
	for _, e := range batch {
		if err := st.writeFile(e); err != nil {
			st.writeErrs.Add(1)
		}
	}
}

// Flush synchronously persists every queued write-behind entry. No-op
// without write-behind.
func (st *Store) Flush() {
	st.wbMu.Lock()
	enabled := st.wbEnabled
	st.wbMu.Unlock()
	if enabled {
		st.flushPending()
	}
}

// Close flushes queued writes and stops the write-behind flusher; the
// store remains usable afterwards with synchronous saves. No-op
// without write-behind.
func (st *Store) Close() {
	st.wbMu.Lock()
	if !st.wbEnabled {
		st.wbMu.Unlock()
		return
	}
	st.wbEnabled = false
	stop, done := st.wbStop, st.wbDone
	st.wbMu.Unlock()
	close(stop)
	<-done
	st.flushPending()
}

// errStale marks a store entry that no longer matches the session it
// would be zipped against (enumeration drift, oracle change); callers
// treat it as a miss.
var errStale = errors.New("campaign: stale cache entry")
