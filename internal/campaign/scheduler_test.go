package campaign

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestStoreSingleflight: N concurrent Acquires of one absent key elect
// exactly one leader; after its commit every waiter gets the entry as
// a hit, and the store performed one Save total.
func TestStoreSingleflight(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var computations atomic.Int32
	var wg sync.WaitGroup
	entries := make([]*Entry, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, commit := st.Acquire("shared-key")
			if commit != nil {
				computations.Add(1)
				e = &Entry{Key: "shared-key", FaultsDigest: "fd"}
				if err := commit(e); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
			entries[g] = e
		}(g)
	}
	wg.Wait()
	if got := computations.Load(); got != 1 {
		t.Fatalf("%d computations for one key, want 1", got)
	}
	for g, e := range entries {
		if e == nil || e.FaultsDigest != "fd" {
			t.Fatalf("goroutine %d got entry %+v", g, e)
		}
	}
	if s := st.Stats(); s.Saves != 1 {
		t.Fatalf("store saved %d entries, want 1 (stats %+v)", s.Saves, s)
	}
}

// TestStoreSingleflightAbandon: a leader that commits nil releases its
// waiters to re-race; a later leader can still complete the key, so a
// failed computation never wedges it.
func TestStoreSingleflightAbandon(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	_, commit := st.Acquire("k")
	if commit == nil {
		t.Fatal("first Acquire of an absent key did not lead")
	}
	waited := make(chan *Entry)
	go func() {
		e, c := st.Acquire("k")
		if c != nil {
			e = &Entry{Key: "k"}
			c(e)
		}
		waited <- e
	}()
	if err := commit(nil); err != nil {
		t.Fatalf("abandoning commit errored: %v", err)
	}
	select {
	case e := <-waited:
		if e == nil {
			t.Fatal("waiter got no entry after re-racing an abandoned flight")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter wedged on an abandoned flight")
	}
	if e, c := st.Acquire("k"); c != nil || e == nil {
		t.Fatal("completed key not answered from the store")
	}
}

// TestStoreWriteBehind: with write-behind enabled, Save defers disk
// I/O (lookups still hit from memory), repeated saves of one key
// dedup, reaching the batch size kicks a flush, and Close drains the
// rest so a fresh store over the same directory sees everything.
func TestStoreWriteBehind(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir)
	// A huge interval isolates the size-triggered and Close-triggered
	// flush paths from timer luck.
	st.EnableWriteBehind(4, time.Hour)

	onDisk := func() int {
		files, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	if err := st.Save(&Entry{Key: "a", FaultsDigest: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(&Entry{Key: "a", FaultsDigest: "v2"}); err != nil {
		t.Fatal(err) // same key: dedup, newest wins
	}
	if n := onDisk(); n != 0 {
		t.Fatalf("%d entries on disk before any flush trigger", n)
	}
	if e, ok := st.Lookup("a"); !ok || e.FaultsDigest != "v2" {
		t.Fatalf("pending entry not visible to Lookup: %+v", e)
	}
	// Fill to the batch size; the flusher should drain without Flush.
	for _, k := range []string{"b", "c", "d"} {
		if err := st.Save(&Entry{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for onDisk() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("batch-size flush never happened (%d files)", onDisk())
		}
		time.Sleep(time.Millisecond)
	}
	if err := st.Save(&Entry{Key: "e"}); err != nil {
		t.Fatal(err)
	}
	st.Close() // drains "e"
	if n := onDisk(); n != 5 {
		t.Fatalf("%d entries on disk after Close, want 5", n)
	}
	if s := st.Stats(); s.WriteErrors != 0 {
		t.Fatalf("write errors: %+v", s)
	}
	// Newest-wins reached the disk, and a fresh store reads it back.
	fresh := newTestStore(t, dir)
	if e, ok := fresh.Lookup("a"); !ok || e.FaultsDigest != "v2" {
		t.Fatalf("fresh store read %+v for deduped key", e)
	}
	// The store stays usable after Close, with synchronous saves.
	if err := st.Save(&Entry{Key: "f"}); err != nil {
		t.Fatal(err)
	}
	if n := onDisk(); n != 6 {
		t.Fatalf("post-Close save not synchronous (%d files)", n)
	}
}

// TestStoreWriteBehindErrorCounting: flush failures land in
// Stats().WriteErrors instead of surfacing from Save — and do not
// poison the in-memory copy.
func TestStoreWriteBehindErrorCounting(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t, dir)
	st.EnableWriteBehind(4, time.Hour)
	if err := st.Save(&Entry{Key: "x"}); err != nil {
		t.Fatal(err)
	}
	// Make the directory unwritable so the deferred write fails.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	st.Close()
	if os.Getuid() == 0 {
		// Root ignores permission bits; the failure path is untestable
		// this way, but the accounting fields still must exist.
		t.Skip("running as root: cannot provoke a write failure via permissions")
	}
	if s := st.Stats(); s.WriteErrors == 0 {
		t.Fatalf("failed flush not counted: %+v", s)
	}
	if _, ok := st.Lookup("x"); !ok {
		t.Fatal("in-memory entry lost on flush failure")
	}
}
