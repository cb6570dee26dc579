package gossip

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Wire format: sealed frames (internal/wire; DESIGN.md, "Shared
// plumbing") under magic 'g', kinds rumor..delta. The fuzz suite holds
// the codec to the never-panic discipline under faults.Mangle-style
// corruption (bit flips, truncation, insertion).

const (
	frameMagic   = 0x67 // 'g'
	frameVersion = 1

	kindRumor  = 1
	kindAck    = 2
	kindDigest = 3
	kindDelta  = 4

	maxWireString    = 4096
	maxWireRecords   = 8192
	maxWireInterests = 256
	maxWireView      = 256
	maxWireMask      = 1024
)

// Frame kind tags for stats and tests.
const (
	KindRumor  = kindRumor
	KindAck    = kindAck
	KindDigest = kindDigest
	KindDelta  = kindDelta
)

// ErrBadFrame reports any malformed gossip frame: short, wrong
// magic/version/kind, checksum mismatch, over-cap length, or trailing
// garbage.
var ErrBadFrame = errors.New("gossip: bad frame")

var codec = wire.Codec{Magic: frameMagic, Version: frameVersion, MinKind: kindRumor, MaxKind: kindDelta, Bad: ErrBadFrame}

// Record is one epoch-versioned member profile as it rides the wire: a
// member identity, the device carrying it, the store epoch at capture
// time (PR 4's wire-visible mutation counter — newer epoch supersedes),
// and the advertised interests.
type Record struct {
	Member    ids.MemberID
	Device    ids.DeviceID
	Epoch     uint64
	Interests []string
}

// Key is the record's identity in "have" digests: member|epoch. A
// re-advertised profile (new epoch) is a new rumor with a fresh key, so
// stale blooms never suppress fresh state.
func (r Record) Key() string {
	return string(r.Member) + "|" + fmt.Sprintf("%x", r.Epoch)
}

// ViewEntry is one peer descriptor in the CyclonSN-style sampling view:
// the device to dial, the member it carries, and the entry's age in
// shuffle rounds (older entries are evicted first).
type ViewEntry struct {
	Device ids.DeviceID
	Member ids.MemberID
	Age    uint32
}

// FrameRumor is a rumor push: the sender's hot records the receiver's
// cached digest did not cover, plus a view sample for shuffling.
type FrameRumor struct {
	From    ids.DeviceID
	Records []Record
	View    []ViewEntry
}

// FrameAck answers a rumor push. KnownMask has bit i set when pushed
// record i was already known (the feedback that decays hot counters),
// Bloom is the responder's current "have" digest (cached by the
// initiator to skip future no-op pushes), View is the shuffle reply.
type FrameAck struct {
	KnownMask []byte
	Bloom     *Bloom
	View      []ViewEntry
}

// FrameDigest opens an anti-entropy exchange: the initiator's full
// "have" digest and a view sample.
type FrameDigest struct {
	From  ids.DeviceID
	Bloom *Bloom
	View  []ViewEntry
}

// FrameDelta carries reconciliation records. The responder's delta also
// carries its own bloom so the initiator can compute the reverse delta;
// the initiator's closing delta carries no bloom.
type FrameDelta struct {
	From    ids.DeviceID
	Records []Record
	Bloom   *Bloom
}

// --- encoding ---

func appendRecord(b []byte, r Record) []byte {
	b = wire.AppendString(b, string(r.Member))
	b = wire.AppendString(b, string(r.Device))
	b = binary.AppendUvarint(b, r.Epoch)
	b = binary.AppendUvarint(b, uint64(len(r.Interests)))
	for _, it := range r.Interests {
		b = wire.AppendString(b, it)
	}
	return b
}

func appendRecords(b []byte, rs []Record) []byte {
	b = binary.AppendUvarint(b, uint64(len(rs)))
	for _, r := range rs {
		b = appendRecord(b, r)
	}
	return b
}

func appendView(b []byte, v []ViewEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, e := range v {
		b = wire.AppendString(b, string(e.Device))
		b = wire.AppendString(b, string(e.Member))
		b = binary.AppendUvarint(b, uint64(e.Age))
	}
	return b
}

func appendBloom(b []byte, f *Bloom) []byte {
	if f == nil || f.nbits == 0 {
		return binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(f.nbits))
	b = binary.AppendUvarint(b, uint64(f.k))
	b = binary.AppendUvarint(b, uint64(f.count))
	b = binary.AppendUvarint(b, f.salt)
	return append(b, f.bits...)
}

// MarshalRumor encodes a rumor push frame.
func MarshalRumor(f FrameRumor) []byte {
	b := codec.Header(kindRumor)
	b = wire.AppendString(b, string(f.From))
	b = appendRecords(b, f.Records)
	b = appendView(b, f.View)
	return wire.Seal(b)
}

// MarshalAck encodes a rumor acknowledgement frame.
func MarshalAck(f FrameAck) []byte {
	b := codec.Header(kindAck)
	b = wire.AppendBytes(b, f.KnownMask)
	b = appendBloom(b, f.Bloom)
	b = appendView(b, f.View)
	return wire.Seal(b)
}

// MarshalDigest encodes an anti-entropy digest frame.
func MarshalDigest(f FrameDigest) []byte {
	b := codec.Header(kindDigest)
	b = wire.AppendString(b, string(f.From))
	b = appendBloom(b, f.Bloom)
	b = appendView(b, f.View)
	return wire.Seal(b)
}

// MarshalDelta encodes an anti-entropy delta frame.
func MarshalDelta(f FrameDelta) []byte {
	b := codec.Header(kindDelta)
	b = wire.AppendString(b, string(f.From))
	b = appendRecords(b, f.Records)
	b = appendBloom(b, f.Bloom)
	return wire.Seal(b)
}

// --- decoding ---

func readRecord(r *wire.Reader) (Record, error) {
	var rec Record
	m, err := r.Str(maxWireString)
	if err != nil {
		return rec, err
	}
	d, err := r.Str(maxWireString)
	if err != nil {
		return rec, err
	}
	epoch, err := r.Uvarint()
	if err != nil {
		return rec, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return rec, err
	}
	if n > maxWireInterests {
		return rec, ErrBadFrame
	}
	var interests []string
	if n > 0 {
		interests = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			it, err := r.Str(maxWireString)
			if err != nil {
				return rec, err
			}
			interests = append(interests, it)
		}
	}
	rec.Member = ids.MemberID(m)
	rec.Device = ids.DeviceID(d)
	rec.Epoch = epoch
	rec.Interests = interests
	return rec, nil
}

func readRecords(r *wire.Reader) ([]Record, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxWireRecords {
		return nil, ErrBadFrame
	}
	if n == 0 {
		return nil, nil
	}
	// Cap the pre-allocation: a mangled count still has to be backed
	// by actual bytes before it grows the slice.
	recs := make([]Record, 0, min(int(n), 64))
	for i := uint64(0); i < n; i++ {
		rec, err := readRecord(r)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func readView(r *wire.Reader) ([]ViewEntry, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxWireView {
		return nil, ErrBadFrame
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]ViewEntry, 0, min(int(n), 64))
	for i := uint64(0); i < n; i++ {
		dev, err := r.Str(maxWireString)
		if err != nil {
			return nil, err
		}
		mem, err := r.Str(maxWireString)
		if err != nil {
			return nil, err
		}
		age, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if age > 1<<30 {
			return nil, ErrBadFrame
		}
		out = append(out, ViewEntry{Device: ids.DeviceID(dev), Member: ids.MemberID(mem), Age: uint32(age)})
	}
	return out, nil
}

func readBloom(r *wire.Reader) (*Bloom, error) {
	nbits, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nbits == 0 {
		return nil, nil
	}
	if nbits > bloomMaxBits {
		return nil, ErrBadFrame
	}
	k, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if k < 1 || k > bloomMaxK {
		return nil, ErrBadFrame
	}
	count, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if count > 1<<32-1 {
		return nil, ErrBadFrame
	}
	salt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	raw, err := r.Raw(int((nbits + 7) / 8))
	if err != nil {
		return nil, err
	}
	bits := append([]byte(nil), raw...)
	return &Bloom{bits: bits, nbits: uint32(nbits), k: uint8(k), count: uint32(count), salt: salt}, nil
}

// FrameKind peeks at a sealed frame's kind without validating the body.
// It still verifies the checksum, so a mangled kind byte is rejected
// rather than misrouted.
func FrameKind(data []byte) (byte, error) { return codec.Kind(data) }

// UnmarshalRumor decodes a rumor push frame.
func UnmarshalRumor(data []byte) (FrameRumor, error) {
	var f FrameRumor
	r, err := codec.Open(data, kindRumor)
	if err != nil {
		return f, err
	}
	from, err := r.Str(maxWireString)
	if err != nil {
		return f, err
	}
	recs, err := readRecords(r)
	if err != nil {
		return f, err
	}
	view, err := readView(r)
	if err != nil {
		return f, err
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.From = ids.DeviceID(from)
	f.Records = recs
	f.View = view
	return f, nil
}

// UnmarshalAck decodes a rumor acknowledgement frame.
func UnmarshalAck(data []byte) (FrameAck, error) {
	var f FrameAck
	r, err := codec.Open(data, kindAck)
	if err != nil {
		return f, err
	}
	mask, err := r.Bytes(maxWireMask)
	if err != nil {
		return f, err
	}
	bloom, err := readBloom(r)
	if err != nil {
		return f, err
	}
	view, err := readView(r)
	if err != nil {
		return f, err
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.KnownMask = mask
	f.Bloom = bloom
	f.View = view
	return f, nil
}

// UnmarshalDigest decodes an anti-entropy digest frame.
func UnmarshalDigest(data []byte) (FrameDigest, error) {
	var f FrameDigest
	r, err := codec.Open(data, kindDigest)
	if err != nil {
		return f, err
	}
	from, err := r.Str(maxWireString)
	if err != nil {
		return f, err
	}
	bloom, err := readBloom(r)
	if err != nil {
		return f, err
	}
	view, err := readView(r)
	if err != nil {
		return f, err
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.From = ids.DeviceID(from)
	f.Bloom = bloom
	f.View = view
	return f, nil
}

// UnmarshalDelta decodes an anti-entropy delta frame.
func UnmarshalDelta(data []byte) (FrameDelta, error) {
	var f FrameDelta
	r, err := codec.Open(data, kindDelta)
	if err != nil {
		return f, err
	}
	from, err := r.Str(maxWireString)
	if err != nil {
		return f, err
	}
	recs, err := readRecords(r)
	if err != nil {
		return f, err
	}
	bloom, err := readBloom(r)
	if err != nil {
		return f, err
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.From = ids.DeviceID(from)
	f.Records = recs
	f.Bloom = bloom
	return f, nil
}
