package interest

import (
	"strings"
	"testing"
	"testing/quick"
)

// normalizeRef is Normalize's definition without the fast path.
func normalizeRef(term string) string {
	return strings.Join(strings.Fields(strings.ToLower(term)), " ")
}

// normalizeSeeds straddle the fast path's edges: already-normal terms,
// each kind of ASCII whitespace, edge and doubled spaces, upper case,
// and non-ASCII letters and spaces (U+0085, U+00A0, U+3000) that only
// the slow path understands.
var normalizeSeeds = []string{
	"", " ", "football", "england football", "a b c", "Football", " football", "football ",
	"rock  music", "rock\tmusic", "rock\nmusic", "rock\vmusic", "rock\fmusic", "rock\rmusic",
	"x\x00y", "x\x1fy\x7f", "café", "CAFÉ", "rock\u0085music", "rock music", "rock　music",
	"\xff\xfe", "ǅ", "İstanbul", "ﬃ",
}

// TestNormalizeMatchesReference holds the fast path to the reference
// on the seeds and on random strings.
func TestNormalizeMatchesReference(t *testing.T) {
	for _, s := range normalizeSeeds {
		if got, want := Normalize(s), normalizeRef(s); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", s, got, want)
		}
	}
	prop := func(s string) bool { return Normalize(s) == normalizeRef(s) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzNormalize is the same property over fuzzed bytes.
func FuzzNormalize(f *testing.F) {
	for _, s := range normalizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Normalize(s), normalizeRef(s); got != want {
			t.Fatalf("Normalize(%q) = %q, want %q", s, got, want)
		}
	})
}

// TestNormalizeAlreadyNormalAllocatesNothing pins the fast path: a
// stored, already-normalized term costs no allocation.
func TestNormalizeAlreadyNormalAllocatesNothing(t *testing.T) {
	term := "england football"
	allocs := testing.AllocsPerRun(100, func() {
		if Normalize(term) != term {
			t.Fatal("normal term changed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Normalize on a normal term allocates %.1f objects, want 0", allocs)
	}
}
