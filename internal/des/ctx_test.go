package des

import (
	"fmt"
	"testing"
	"time"
)

// ctxKeyCascade runs a fixed small cascade on one shard — three roots
// in one window, each fanning out to two or three children, two levels
// deep — and records the (home, seq) key of every executed event in
// execution order. Several events share each batch, so a Ctx reused
// across a batch must still derive exactly the keys a fresh Ctx would.
func ctxKeyCascade(shards int) []string {
	s := NewScheduler(5, shards)
	var keys []string
	var grow func(ctx *Ctx, depth int)
	grow = func(ctx *Ctx, depth int) {
		keys = append(keys, fmt.Sprintf("%x/%x", ctx.home, ctx.seq))
		if depth == 0 {
			return
		}
		for i := uint64(0); i < 2+ctx.seq%2; i++ {
			ctx.At(time.Duration(i)*time.Microsecond, 0x10+i, func(ctx *Ctx) { grow(ctx, depth-1) })
		}
	}
	for r := uint64(0); r < 3; r++ {
		s.At(0, r, func(ctx *Ctx) { grow(ctx, 2) })
	}
	s.Run()
	return keys
}

// ctxKeysPinned are the keys ctxKeyCascade produced while runBatch
// still built a fresh Ctx for every event. Ctx.At derives a child's
// sequence from (home, seq, child index) alone, so reusing one Ctx per
// batch must reproduce them exactly: a stale home, seq or child count
// carried over from the previous event would shift every key below it.
var ctxKeysPinned = []string{
	"1/2", "2/3", "0/1",
	"10/a706dd2f4d197e6f", "10/64684c4f0fd784b4", "10/b1441d254bd86cd7", "10/ab16279407a75f94",
	"10/a5ffa9501c8c5a57", "10/716322f397ef8cf9", "11/e06dd043328bd285", "11/a999de4fbfd519fb",
	"11/4f14d3df5ea1b56f", "11/2a98f501af37e97f", "11/ab54cadb20c80a80", "11/def434e398051d63",
	"10/c2ec047dabf2286e", "10/e24639a40f0f446f", "10/cebe38b28161ce97", "12/9482d55a56af0c8c",
	"11/e58834445f5a0b5d", "11/75d64ea036578429", "12/750a44370729d7f0", "12/e36b0e6e2d63dec6",
	"12/82876e1c4f0b438c", "11/dbdd5c8b788024b7", "10/42b62f644120591d", "10/30ab3ce1ad686d11",
	"12/adcce1301cdd3e2c", "12/1dbab16726dfd0f2", "12/483ce70e2f670fb5", "11/f368bc2cbd37bb71",
	"11/bd1c67864791e086",
}

// TestCtxReuseKeepsChildKeys pins the child keys of a fixed cascade.
func TestCtxReuseKeepsChildKeys(t *testing.T) {
	got := ctxKeyCascade(1)
	if len(got) != len(ctxKeysPinned) {
		t.Fatalf("cascade ran %d events, want %d: %v", len(got), len(ctxKeysPinned), got)
	}
	for i := range got {
		if got[i] != ctxKeysPinned[i] {
			t.Fatalf("event %d key %s, want %s (full trace %v)", i, got[i], ctxKeysPinned[i], got)
		}
	}
}
