package wire

import (
	"errors"
	"testing"

	"repro/internal/faults"
)

var errTest = errors.New("test: bad frame")

var testCodec = Codec{Magic: 0x74, Version: 1, MinKind: 1, MaxKind: 2, Bad: errTest}

func sampleFrame() []byte {
	b := testCodec.Header(2)
	b = AppendString(b, "dev-a")
	b = AppendBytes(b, []byte{1, 2, 3})
	b = append(b, 0xaa, 0xbb)
	return Seal(b)
}

// decode reads sampleFrame's layout back; every step must fail with
// the codec's own error.
func decode(data []byte) (string, []byte, []byte, error) {
	r, err := testCodec.Open(data, 2)
	if err != nil {
		return "", nil, nil, err
	}
	s, err := r.Str(16)
	if err != nil {
		return "", nil, nil, err
	}
	p, err := r.Bytes(16)
	if err != nil {
		return "", nil, nil, err
	}
	raw, err := r.Raw(2)
	if err != nil {
		return "", nil, nil, err
	}
	return s, p, raw, r.Finish()
}

func TestWireRoundTrip(t *testing.T) {
	t.Parallel()
	frame := sampleFrame()
	s, p, raw, err := decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if s != "dev-a" || string(p) != "\x01\x02\x03" || string(raw) != "\xaa\xbb" {
		t.Fatalf("decoded %q %v %v", s, p, raw)
	}
	if k, err := testCodec.Kind(frame); err != nil || k != 2 {
		t.Fatalf("Kind = %d, %v", k, err)
	}
}

func TestWireRejects(t *testing.T) {
	t.Parallel()
	frame := sampleFrame()
	damaged := append([]byte(nil), frame...)
	damaged[len(damaged)-1] ^= 0xff
	other := Codec{Magic: 0x75, Version: 1, MinKind: 1, MaxKind: 2, Bad: errTest}
	cases := map[string]func() error{
		"short":        func() error { _, err := testCodec.Open(frame[:10], 2); return err },
		"wrong kind":   func() error { _, err := testCodec.Open(frame, 1); return err },
		"wrong magic":  func() error { _, err := other.Open(frame, 2); return err },
		"bad checksum": func() error { _, _, _, err := decode(damaged); return err },
		"over cap": func() error {
			r, err := testCodec.Open(frame, 2)
			if err != nil {
				return err
			}
			_, err = r.Str(4)
			return err
		},
		"trailing bytes": func() error {
			r, err := testCodec.Open(frame, 2)
			if err != nil {
				return err
			}
			return r.Finish()
		},
		"kind out of range": func() error {
			_, err := testCodec.Kind(Seal(testCodec.Header(3)))
			return err
		},
	}
	for name, fn := range cases {
		if err := fn(); !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the codec's bad-frame error", name, err)
		}
	}
}

// TestCodecRejectsMangledFrames holds the reader to the never-panic
// discipline under the damage the chaos fault plane inflicts.
func TestCodecRejectsMangledFrames(t *testing.T) {
	t.Parallel()
	frame := sampleFrame()
	for seed := uint64(0); seed < 500; seed++ {
		mangled := faults.Mangle(seed, frame)
		if _, _, _, err := decode(mangled); err != nil && !errors.Is(err, errTest) {
			t.Fatalf("seed %d: unexpected error %v", seed, err)
		}
	}
}

func FuzzOpen(f *testing.F) {
	f.Add(sampleFrame())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, _, err := decode(data); err != nil && !errors.Is(err, errTest) {
			t.Fatalf("unexpected error %v", err)
		}
		if _, err := testCodec.Kind(data); err != nil && !errors.Is(err, errTest) {
			t.Fatalf("unexpected error %v", err)
		}
	})
}
