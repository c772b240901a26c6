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
	"bytes"
	"container/list"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/r2r/reinforce/internal/fault"
)

// Record is the stored evidence behind one fault's outcome — the
// in-memory form of a fault.SimRecord. Pages is the run's code
// footprint; Steps/LimitHit qualify the outcome against a different
// injection step budget (see Memo.lookup for the reuse rule). Records
// decoded from disk share the Pages slices of equal footprints, so
// Pages is read-only.
type Record struct {
	Steps    uint64
	Pages    []uint64
	Outcome  fault.Outcome
	LimitHit bool
}

// Entry is one stored campaign result: the outcome of every injection
// of one plan, in shard-local order, plus the digests and oracles that
// gate its reuse. An order-1 entry carries per-fault Records; a
// multi-fault stage's entry (order 2 or 3) carries its sequence list's
// digest and one outcome column instead. MarshalJSON and UnmarshalJSON
// define the on-disk layout (see entryJSON).
type Entry struct {
	Schema       int
	Key          string
	FaultsDigest string

	GoodOracle fault.Observable
	BadOracle  fault.Observable
	Limit      uint64

	Records []Record

	SeqDigest string
	Outcomes  []fault.Outcome
}

// entryJSON is an Entry's on-disk layout at planSchema 4: the header,
// then the per-injection evidence as columns in shard-local injection
// order, so a stored campaign decodes without reflecting over one JSON
// record per fault.
//
//   - outcomes holds one outcomeLetters letter per injection, for
//     entries of every order;
//   - steps, limit_hit, page_sets and page_set carry order-1 evidence,
//     and steps is present exactly in order-1 entries: each run's step
//     count, the ascending indices of budget-cut runs, each distinct
//     footprint page list once (in order of first use), and each
//     injection's index into page_sets.
type entryJSON struct {
	Schema       int              `json:"schema"`
	Key          string           `json:"key"`
	FaultsDigest string           `json:"faults_digest"`
	GoodOracle   fault.Observable `json:"good_oracle"`
	BadOracle    fault.Observable `json:"bad_oracle"`
	Limit        uint64           `json:"injection_step_limit"`
	SeqDigest    string           `json:"seq_digest,omitempty"`
	Outcomes     string           `json:"outcomes"`
	Steps        uints            `json:"steps,omitempty"`
	LimitHit     uints            `json:"limit_hit,omitempty"`
	PageSets     []uints          `json:"page_sets,omitempty"`
	PageSet      uints            `json:"page_set,omitempty"`
}

// outcomeLetters spells the outcome column: the letter at index o
// stands for fault.Outcome(o).
const outcomeLetters = "iScd"

// errBadEntry marks a store document (errBadColumn: a number column)
// that breaks the entry layout; Lookup treats it as absent.
var (
	errBadEntry  = errors.New("campaign: malformed store entry")
	errBadColumn = fmt.Errorf("%w: want an array of unsigned integers", errBadEntry)
)

// MarshalJSON renders the entry in its on-disk column layout, interning
// each distinct footprint page list once.
func (e Entry) MarshalJSON() ([]byte, error) {
	if len(e.Records) > 0 && len(e.Outcomes) > 0 {
		return nil, fmt.Errorf("%w: both per-fault records and a sequence outcome column", errBadEntry)
	}
	w := entryJSON{
		Schema: e.Schema, Key: e.Key, FaultsDigest: e.FaultsDigest,
		GoodOracle: e.GoodOracle, BadOracle: e.BadOracle, Limit: e.Limit,
		SeqDigest: e.SeqDigest,
	}
	letters := make([]byte, 0, len(e.Records)+len(e.Outcomes))
	letter := func(o fault.Outcome) error {
		if int(o) >= len(outcomeLetters) {
			return fmt.Errorf("%w: outcome %d", errBadEntry, o)
		}
		letters = append(letters, outcomeLetters[o])
		return nil
	}
	for _, o := range e.Outcomes {
		if err := letter(o); err != nil {
			return nil, err
		}
	}
	if len(e.Records) > 0 {
		w.Steps = make(uints, len(e.Records))
		w.PageSet = make(uints, len(e.Records))
		ids := make(map[string]uint64)
		var key []byte
		for i, r := range e.Records {
			if err := letter(r.Outcome); err != nil {
				return nil, err
			}
			w.Steps[i] = r.Steps
			if r.LimitHit {
				w.LimitHit = append(w.LimitHit, uint64(i))
			}
			key = key[:0]
			for _, pa := range r.Pages {
				key = binary.LittleEndian.AppendUint64(key, pa)
			}
			id, ok := ids[string(key)]
			if !ok {
				id = uint64(len(w.PageSets))
				ids[string(key)] = id
				w.PageSets = append(w.PageSets, r.Pages)
			}
			w.PageSet[i] = id
		}
	}
	w.Outcomes = string(letters)
	return json.Marshal(&w)
}

// UnmarshalJSON parses the on-disk column layout and checks every
// column invariant: evidence columns as long as the outcome column,
// page-set indices in range, budget-cut indices strictly ascending and
// in range, and only outcome letters in the outcome column. A document
// that breaks one is an error, never a partial entry.
func (e *Entry) UnmarshalJSON(data []byte) error {
	var w entryJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	n := len(w.Outcomes)
	outcomes := make([]fault.Outcome, n)
	for i := 0; i < n; i++ {
		o := strings.IndexByte(outcomeLetters, w.Outcomes[i])
		if o < 0 {
			return fmt.Errorf("%w: outcome letter %q", errBadEntry, w.Outcomes[i])
		}
		outcomes[i] = fault.Outcome(o)
	}
	out := Entry{
		Schema: w.Schema, Key: w.Key, FaultsDigest: w.FaultsDigest,
		GoodOracle: w.GoodOracle, BadOracle: w.BadOracle, Limit: w.Limit,
		SeqDigest: w.SeqDigest,
	}
	if w.Steps == nil {
		if len(w.LimitHit) > 0 || len(w.PageSets) > 0 || len(w.PageSet) > 0 {
			return fmt.Errorf("%w: evidence columns without steps", errBadEntry)
		}
		if n > 0 {
			out.Outcomes = outcomes
		}
		*e = out
		return nil
	}
	if len(w.Steps) != n || len(w.PageSet) != n {
		return fmt.Errorf("%w: evidence columns of %d/%d values for %d outcomes", errBadEntry, len(w.Steps), len(w.PageSet), n)
	}
	records := make([]Record, n)
	for i := range records {
		id := w.PageSet[i]
		if id >= uint64(len(w.PageSets)) {
			return fmt.Errorf("%w: page set %d of %d", errBadEntry, id, len(w.PageSets))
		}
		records[i] = Record{Steps: w.Steps[i], Outcome: outcomes[i]}
		if pages := w.PageSets[id]; len(pages) > 0 {
			records[i].Pages = pages
		}
	}
	for j, i := range w.LimitHit {
		if i >= uint64(n) || j > 0 && i <= w.LimitHit[j-1] {
			return fmt.Errorf("%w: limit_hit index %d out of order or range", errBadEntry, i)
		}
		records[i].LimitHit = true
	}
	if n > 0 {
		out.Records = records
	}
	*e = out
	return nil
}

// uints is the number column type of the entry layout: a JSON array
// of unsigned integers, rendered and parsed by hand instead of by
// reflection per element.
type uints []uint64

// MarshalJSON renders the column as a JSON array.
func (u uints) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 2+6*len(u))
	b = append(b, '[')
	for i, v := range u {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON parses a JSON array of integers in [0, 2^64); null
// leaves the column absent (nil), and any other value is an error.
func (u *uints) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*u = nil
		return nil
	}
	if len(data) < 2 || data[0] != '[' {
		return errBadColumn
	}
	out := make(uints, 0, bytes.Count(data, []byte{','})+1)
	i := skipSpace(data, 1)
	if i < len(data) && data[i] != ']' {
		for {
			start := i
			var v uint64
			for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
				d := uint64(data[i] - '0')
				if v > (math.MaxUint64-d)/10 {
					return errBadColumn
				}
				v = v*10 + d
			}
			if i == start {
				return errBadColumn
			}
			out = append(out, v)
			if i = skipSpace(data, i); i >= len(data) {
				return errBadColumn
			}
			if data[i] == ']' {
				break
			}
			if data[i] != ',' {
				return errBadColumn
			}
			i = skipSpace(data, i+1)
		}
	}
	// data[i] is the closing bracket, which must end the value.
	if skipSpace(data, i+1) != len(data) {
		return errBadColumn
	}
	*u = out
	return nil
}

// skipSpace returns the index of the first non-whitespace byte of data
// at or after i.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
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
