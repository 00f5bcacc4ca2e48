package counter_test

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"authmem/client"
	"authmem/cluster"
	"authmem/internal/core"
	"authmem/internal/counter"
	"authmem/internal/ctr"
	"authmem/internal/wire"
)

// TestEveryFieldBanked checks that every banked stats type has the shape
// Load and Sum rely on — exported uint64 fields and nothing else — and that
// both carry a distinct value through every field, so a counter added to a
// bank cannot drop out of a snapshot or a merge.
func TestEveryFieldBanked(t *testing.T) {
	t.Run("EngineStats", checkBank[core.EngineStats])
	t.Run("ctr.Stats", checkBank[ctr.Stats])
	t.Run("ServerCounters", checkBank[wire.ServerCounters])
	t.Run("client.Stats", checkBank[client.Stats])
	t.Run("cluster.Stats", checkBank[cluster.Stats])
}

func checkBank[S any](t *testing.T) {
	typ := reflect.TypeFor[S]()
	if typ.Kind() != reflect.Struct || typ.NumField() == 0 {
		t.Fatalf("%v is not a struct of counters", typ)
	}
	for i := range typ.NumField() {
		if f := typ.Field(i); !f.IsExported() || f.Type != reflect.TypeFor[uint64]() {
			t.Fatalf("%v.%s is %v (exported %v), want an exported uint64", typ, f.Name, f.Type, f.IsExported())
		}
	}

	var live, dst S
	lv, dv := reflect.ValueOf(&live).Elem(), reflect.ValueOf(&dst).Elem()
	for i := range typ.NumField() {
		lv.Field(i).SetUint(uint64(i + 1))
		dv.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
	snap := counter.Load(&live)
	counter.Sum(&dst, snap)
	sv := reflect.ValueOf(snap)
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		if got := sv.Field(i).Uint(); got != uint64(i+1) {
			t.Errorf("Load: %s = %d, want %d", name, got, i+1)
		}
		if got := dv.Field(i).Uint(); got != uint64(1001*(i+1)) {
			t.Errorf("Sum: %s = %d, want %d", name, got, 1001*(i+1))
		}
	}
}

// TestLoadWhileCountersMove reads a bank while writers bump it. Under -race
// it checks that Load's word loads pair with the writers' atomic adds; in
// any run, each snapshot must see every field at least where the previous
// one did, and the last must see every add.
func TestLoadWhileCountersMove(t *testing.T) {
	const writers, adds = 4, 2000
	live := new(client.Stats) // allocated, so 64-bit aligned on any target
	var wg sync.WaitGroup
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range adds {
				atomic.AddUint64(&live.Attempts, 1)
				atomic.AddUint64(&live.RetriesExhausted, 2)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var prev client.Stats
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		snap := counter.Load(live)
		if snap.Attempts < prev.Attempts || snap.RetriesExhausted < prev.RetriesExhausted {
			t.Fatalf("snapshot went backwards: %+v after %+v", snap, prev)
		}
		prev = snap
	}
	if got := counter.Load(live); got.Attempts != writers*adds || got.RetriesExhausted != 2*writers*adds {
		t.Fatalf("final snapshot %+v, want %d attempts and %d exhausted", got, writers*adds, 2*writers*adds)
	}
}
