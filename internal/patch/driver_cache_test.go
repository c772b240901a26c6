package patch

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/r2r/reinforce/internal/campaign"
	"github.com/r2r/reinforce/internal/fault"
)

// hardenWith runs the pincheck fixed point with the given store.
func hardenWith(t *testing.T, st *campaign.Store, order int) *Result {
	t.Helper()
	res, err := Harden(build(t, pincheckSrc), Options{
		Good:   goodPin,
		Bad:    badPin,
		Models: []fault.Model{fault.ModelSkip},
		Order:  order,
		Store:  st,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// binImage flattens a result's binary for comparison.
func binImage(t *testing.T, r *Result) []byte {
	t.Helper()
	img, err := r.Binary.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDriverWarmStoreBitIdentity: a second `patch` run over the same
// binary with a shared cache directory must produce a bit-identical
// hardened binary and final report, answering its campaigns from the
// store instead of simulating.
func TestDriverWarmStoreBitIdentity(t *testing.T) {
	dir := t.TempDir()
	st1, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := hardenWith(t, st1, 1)
	if cold.Cache.Misses == 0 {
		t.Fatal("cold driver run missed nothing — store not consulted?")
	}

	// A fresh store over the same directory stands in for a second
	// process.
	st2, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := hardenWith(t, st2, 1)
	if warm.Cache.Misses != 0 {
		t.Errorf("warm driver run still missed: %+v", warm.Cache)
	}
	if warm.Cache.Hits == 0 {
		t.Error("warm driver run recorded no store hits")
	}
	for i := range warm.Iterations {
		if !warm.Iterations[i].CacheHit {
			t.Errorf("warm iteration %d not served from the store", i+1)
		}
	}
	if !bytes.Equal(binImage(t, cold), binImage(t, warm)) {
		t.Fatal("warm run produced a different hardened binary")
	}
	if !reflect.DeepEqual(cold.Final.Injections, warm.Final.Injections) {
		t.Fatal("warm run produced a different final report")
	}
	if cold.Converged() != warm.Converged() {
		t.Fatal("convergence verdict differs between cold and warm runs")
	}
}

// TestDriverStorelessMatchesStored: without a store the driver runs on
// a private in-memory one, so a storeless order-2 run answers its own
// repeats from it — the first pair round's solo sweep and the final
// verification re-run binaries already swept — and reports exactly
// what a run over a cold disk store reports, cache block included,
// with the same hardened binary.
func TestDriverStorelessMatchesStored(t *testing.T) {
	plain := hardenWith(t, nil, 2)
	st, err := campaign.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stored := hardenWith(t, st, 2)
	if !bytes.Equal(binImage(t, plain), binImage(t, stored)) {
		t.Fatal("store changed the hardened binary")
	}
	if !reflect.DeepEqual(plain.Final.Injections, stored.Final.Injections) {
		t.Fatal("store changed the final report")
	}
	if plain.Cache.Hits != 2 {
		t.Errorf("storeless run: %+v, want 2 hits (first pair round's solo sweep, final verification)", plain.Cache)
	}
	var a, b bytes.Buffer
	if err := plain.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := stored.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("storeless JSON differs from the cold store's\n--- storeless ---\n%s\n--- stored ---\n%s", a.String(), b.String())
	}
}

// TestDriverOrder2WarmStore: the order-2 escalation loop's solo and
// pair campaigns replay from a warm store too, with identical results.
func TestDriverOrder2WarmStore(t *testing.T) {
	if testing.Short() {
		t.Skip("order-2 fixed point; run without -short")
	}
	dir := t.TempDir()
	st1, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := hardenWith(t, st1, 2)

	st2, err := campaign.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := hardenWith(t, st2, 2)
	if warm.Cache.Misses != 0 {
		t.Errorf("warm order-2 run still missed: %+v", warm.Cache)
	}
	if !bytes.Equal(binImage(t, cold), binImage(t, warm)) {
		t.Fatal("warm order-2 run produced a different hardened binary")
	}
	if !reflect.DeepEqual(cold.FinalPairs, warm.FinalPairs) {
		t.Fatal("warm order-2 run produced different final pairs")
	}
	if cold.PairConverged() != warm.PairConverged() {
		t.Fatal("pair convergence verdict differs")
	}
}
