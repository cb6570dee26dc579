package gossip

import (
	"fmt"
	"testing"

	"repro/internal/ids"
)

// TestBloomProperty pins the filter against a brute-force set oracle
// across seeded element sets: zero false negatives ever, and a
// false-positive rate within 2x of the configured bloom_false_positive
// (the PeerSim exemplar's knob). Keys are drawn from the same
// member|epoch shape real digests hold.
func TestBloomProperty(t *testing.T) {
	t.Parallel()
	const probes = 20000
	for _, tc := range []struct {
		n int
		p float64
	}{
		{1, 0.01},
		{8, 0.01},
		{64, 0.01},
		{500, 0.01},
		{2000, 0.01},
		{64, 0.001},
		{500, 0.001},
		{64, 0.05},
		{500, 0.05},
	} {
		tc := tc
		t.Run(fmt.Sprintf("n=%d/p=%g", tc.n, tc.p), func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 4; seed++ {
				b := NewBloom(tc.n, tc.p, ids.Mix64(seed))
				oracle := make(map[string]bool, tc.n)
				for i := 0; i < tc.n; i++ {
					key := Record{
						Member: memberKeyForTest(seed, i),
						Epoch:  uint64(i % 7),
					}.Key()
					b.Add(key)
					oracle[key] = true
				}
				// Zero false negatives: everything inserted must test
				// present.
				for key := range oracle {
					if !b.Has(key) {
						t.Fatalf("false negative for %q (n=%d p=%g seed=%d)", key, tc.n, tc.p, seed)
					}
				}
				// False-positive rate over keys the oracle proves
				// absent.
				fp := 0
				tested := 0
				for i := 0; i < probes; i++ {
					key := Record{
						Member: memberKeyForTest(seed+1000, i+1<<20),
						Epoch:  uint64(i%7) + 100,
					}.Key()
					if oracle[key] {
						continue
					}
					tested++
					if b.Has(key) {
						fp++
					}
				}
				rate := float64(fp) / float64(tested)
				if rate > 2*tc.p {
					t.Fatalf("false-positive rate %.4f exceeds 2x configured %.4f (n=%d seed=%d, %d/%d)",
						rate, tc.p, tc.n, seed, fp, tested)
				}
			}
		})
	}
}

func memberKeyForTest(seed uint64, i int) ids.MemberID {
	return ids.MemberID(fmt.Sprintf("member-%x-%d", ids.Mix64(seed^uint64(i)), i))
}

// TestBloomSaltIndependence checks that two filters over the same set
// with different salts disagree on their false positives — the
// property the anti-entropy convergence argument rests on (an FP in
// one exchange is re-drawn in the next).
func TestBloomSaltIndependence(t *testing.T) {
	t.Parallel()
	const n = 200
	build := func(salt uint64) *Bloom {
		b := NewBloom(n, 0.05, salt)
		for i := 0; i < n; i++ {
			b.Add(fmt.Sprintf("k-%d", i))
		}
		return b
	}
	a, bb := build(1), build(2)
	bothFP := 0
	eitherFP := 0
	for i := 0; i < 50000; i++ {
		key := fmt.Sprintf("absent-%d", i)
		fa, fb := a.Has(key), bb.Has(key)
		if fa || fb {
			eitherFP++
		}
		if fa && fb {
			bothFP++
		}
	}
	if eitherFP == 0 {
		t.Skip("no false positives drawn at all")
	}
	// Independent draws at rate p should coincide at roughly p^2; if
	// the salt did nothing they would coincide at p. Allow generous
	// slack: coincidences must be well under half the singles.
	if bothFP*4 > eitherFP {
		t.Fatalf("salted filters share too many false positives: both=%d either=%d", bothFP, eitherFP)
	}
}

// TestBloomZeroValue pins nil/empty behavior: a nil filter claims
// nothing, so a missing digest never suppresses a push.
func TestBloomZeroValue(t *testing.T) {
	t.Parallel()
	var b *Bloom
	if b.Has("anything") {
		t.Fatal("nil bloom claims membership")
	}
	if b.Count() != 0 || b.Bits() != 0 || b.K() != 0 || b.Salt() != 0 {
		t.Fatal("nil bloom reports non-zero shape")
	}
}

// TestBloomWireRoundTrip proves a decoded filter answers exactly like
// the original, bit for bit, salt included.
func TestBloomWireRoundTrip(t *testing.T) {
	t.Parallel()
	b := NewBloom(64, 0.01, 0xfeed)
	keys := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("rt-%d", i)
		keys = append(keys, k)
		b.Add(k)
	}
	frame := MarshalDigest(FrameDigest{From: "dev", Bloom: b})
	dec, err := UnmarshalDigest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bloom == nil {
		t.Fatal("bloom lost in round trip")
	}
	if dec.Bloom.Bits() != b.Bits() || dec.Bloom.K() != b.K() || dec.Bloom.Count() != b.Count() || dec.Bloom.Salt() != b.Salt() {
		t.Fatalf("shape changed: %d/%d/%d/%d -> %d/%d/%d/%d",
			b.Bits(), b.K(), b.Count(), b.Salt(), dec.Bloom.Bits(), dec.Bloom.K(), dec.Bloom.Count(), dec.Bloom.Salt())
	}
	for _, k := range keys {
		if !dec.Bloom.Has(k) {
			t.Fatalf("decoded bloom lost key %q", k)
		}
	}
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if b.Has(k) != dec.Bloom.Has(k) {
			t.Fatalf("decoded bloom disagrees on %q", k)
		}
	}
}
