package campaign

import (
	"fmt"
	"sync"
	"testing"

	"github.com/r2r/reinforce/internal/fault"
)

// TestStoreStatsConcurrent: the lifetime counters stay exact — and
// race-free — when lookups, saves, and Stats() snapshots run
// concurrently, the access pattern of sharded campaigns executing
// against one store.
func TestStoreStatsConcurrent(t *testing.T) {
	st, err := NewStore("")
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perW    = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := fmt.Sprintf("key-%d-%d", w, i)
				if _, ok := st.Lookup(key); ok {
					t.Errorf("lookup of unsaved %s hit", key)
				}
				if err := st.Save(&Entry{Key: key, Outcomes: []fault.Outcome{fault.OutcomeIgnored}}); err != nil {
					t.Errorf("save %s: %v", key, err)
				}
				if _, ok := st.Lookup(key); !ok {
					t.Errorf("lookup of saved %s missed", key)
				}
				st.Stats() // must be safe mid-flight
			}
		}(w)
	}
	wg.Wait()
	got := st.Stats()
	want := StoreStats{
		Hits:   workers * perW,
		Misses: workers * perW,
		Saves:  workers * perW,
	}
	if got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}
