package campaign

import (
	"fmt"
	"sync"
	"testing"

	"github.com/r2r/reinforce/internal/fault"
)

// TestStoreStatsConcurrent: an in-memory store stays exact and
// race-free when goroutines look up, save and look up again distinct
// keys concurrently, as the cells of a parallel corpus run do against
// one shared store: every lookup before a key's save misses, every
// lookup after it hits.
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
			}
		}(w)
	}
	wg.Wait()
	if n := st.MemEntries(); n != workers*perW {
		t.Fatalf("%d resident entries, want %d", n, workers*perW)
	}
}
