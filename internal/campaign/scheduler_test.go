package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/r2r/reinforce/internal/fault"
)

// TestWorkerPoolExecute: the pool campaign.NewWorkerPool hands out
// covers [0, n) exactly once, for unit counts around the chunking
// thresholds and worker budgets above and below the unit count, and
// stays usable until its no-op Close.
func TestWorkerPoolExecute(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		pool := NewWorkerPool(workers)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			hits := make([]atomic.Int32, n)
			pool.Execute(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: unit %d ran %d times", workers, n, i, got)
				}
			}
		}
		pool.Close()
	}
}

// TestStoreSaveWriteError: a disk write that fails (here the rename,
// blocked by a directory under the entry's name, which fails even for
// root) surfaces from Save, and the entry still answers Lookup from
// memory.
func TestStoreSaveWriteError(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir)
	if err := os.Mkdir(st.path("x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(&Entry{Key: "x", FaultsDigest: "fd"}); err == nil {
		t.Fatal("Save over a blocked entry path returned no error")
	}
	if e, ok := st.Lookup("x"); !ok || e.FaultsDigest != "fd" {
		t.Fatalf("entry not answered from memory after a failed write: %+v", e)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "entry-*.tmp")); len(tmp) != 0 {
		t.Fatalf("failed write left temp files %v", tmp)
	}
}

// TestStoreConcurrentSaveLookup: two writer stores and a reader store
// share one directory, as concurrent processes over one -cache-dir do.
// Writers save shared and private keys with per-writer entries while
// the reader (capped at one resident entry, so its lookups go to disk)
// reads them. Once a Save of a key has returned, every later lookup of
// it must hit and return one of the saved entries: a torn or
// half-replaced file would decode as a miss or a foreign entry.
func TestStoreConcurrentSaveLookup(t *testing.T) {
	dir := t.TempDir()
	writers := []*Store{newTestStore(t, dir), newTestStore(t, dir)}
	reader, err := NewStoreCapped(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		savers = 8
		shared = 4
		rounds = 8
	)
	// entry builds writer w's entry for key, a fresh value per Save
	// (Save stamps the schema). Writers differ in digest and length, so
	// a mix of two writes cannot decode as either.
	entry := func(key string, w int) *Entry {
		recs := make([]Record, 3+5*w)
		for i := range recs {
			recs[i] = Record{Outcome: fault.Outcome(i % 4), Steps: uint64(100*w + i), Pages: []uint64{uint64(w+1) << 12}}
		}
		return &Entry{Key: key, FaultsDigest: fmt.Sprintf("writer-%d", w), Limit: 99, Records: recs}
	}
	// encode renders an entry for comparison; reader goroutines call it,
	// so a failure is t.Error, not t.Fatal.
	encode := func(e *Entry) string {
		c := *e
		c.Schema = planSchema
		data, err := c.MarshalJSON()
		if err != nil {
			t.Error(err)
		}
		return string(data)
	}
	var keys []string
	want := map[string]map[string]bool{} // key → encodings of its saved entries
	for k := 0; k < shared; k++ {
		key := fmt.Sprintf("shared-%d", k)
		keys = append(keys, key)
		want[key] = map[string]bool{encode(entry(key, 0)): true, encode(entry(key, 1)): true}
	}
	for g := 0; g < savers; g++ {
		key := fmt.Sprintf("private-%d", g)
		keys = append(keys, key)
		want[key] = map[string]bool{encode(entry(key, g%len(writers))): true}
	}
	saved := make(map[string]*atomic.Bool, len(keys))
	for _, k := range keys {
		saved[k] = new(atomic.Bool)
	}
	check := func(st *Store, key string, mustHit bool) {
		e, ok := st.Lookup(key)
		if !ok {
			if mustHit {
				t.Errorf("lookup of %s missed after a Save returned", key)
			}
			return
		}
		if !want[key][encode(e)] {
			t.Errorf("lookup of %s returned an entry no writer saved: %+v", key, e)
		}
	}

	var saving, reading sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[i%len(keys)]
				check(reader, key, saved[key].Load())
			}
		}(r)
	}
	for g := 0; g < savers; g++ {
		saving.Add(1)
		go func(g int) {
			defer saving.Done()
			w := g % len(writers)
			mine := []string{fmt.Sprintf("private-%d", g)}
			for k := 0; k < shared; k++ {
				mine = append(mine, fmt.Sprintf("shared-%d", (g+k)%shared))
			}
			for i := 0; i < rounds; i++ {
				for _, key := range mine {
					if err := writers[w].Save(entry(key, w)); err != nil {
						t.Errorf("writer %d: save %s: %v", w, key, err)
					}
					saved[key].Store(true)
				}
			}
		}(g)
	}
	saving.Wait()
	close(stop)
	reading.Wait()

	fresh := newTestStore(t, dir)
	for _, key := range keys {
		check(fresh, key, true)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "entry-*.tmp")); len(tmp) != 0 {
		t.Fatalf("temp files left behind: %v", tmp)
	}
}
