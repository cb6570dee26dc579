package dtn

import (
	"encoding/binary"
	"errors"

	"repro/internal/ids"
	"repro/internal/wire"
)

// Wire format: sealed frames (internal/wire; DESIGN.md, "Shared
// plumbing") under magic 'd', kinds offer..ack. The fuzz suite holds the
// codec to the never-panic discipline under faults.Mangle-style
// corruption (bit flips, truncation, insertion).
//
// A contact is a four-frame handshake: the initiator OFFERs bundle
// summaries (plus a delivered-ids vaccine sample), the responder
// replies WANT with the subset it takes custody of (plus its own
// vaccine sample), the initiator ships the BUNDLES with allocated copy
// budgets, and the responder closes with ACK naming what it accepted —
// so both sides are fully settled when the initiator's Round returns.

const (
	frameMagic   = 0x64 // 'd'
	frameVersion = 1

	kindOffer   = 1
	kindWant    = 2
	kindBundles = 3
	kindAck     = 4

	maxWireString    = 4096
	maxWireSummaries = 4096
	maxWireIDs       = 4096
	maxWireBundles   = 1024
	maxWirePayload   = 1 << 16
	maxWireTTL       = 1 << 30
	maxWireCopies    = 1 << 20
	maxWireUtility   = 1 << 30
)

// Frame kind tags for stats and tests.
const (
	KindOffer   = kindOffer
	KindWant    = kindWant
	KindBundles = kindBundles
	KindAck     = kindAck
)

// ErrBadFrame reports any malformed DTN frame: short, wrong
// magic/version/kind, checksum mismatch, over-cap length, or trailing
// garbage.
var ErrBadFrame = errors.New("dtn: bad frame")

var codec = wire.Codec{Magic: frameMagic, Version: frameVersion, MinKind: kindOffer, MaxKind: kindAck, Bad: ErrBadFrame}

// Summary advertises one buffered bundle in an OFFER: its identity,
// destination, remaining TTL in rounds, and the offering custodian's
// social utility toward the destination (zero under the epidemic
// strategy). The responder compares Utility against its own to decide
// whether it is a strictly better relay.
type Summary struct {
	ID      string
	Dst     ids.DeviceID
	TTL     uint32
	Utility uint32
}

// Bundle is one addressed message under custody as it rides the wire:
// identity (source-scoped), source, destination, remaining TTL in
// rounds, the copy budget allocated to the receiving custodian, and the
// payload.
type Bundle struct {
	ID      string
	Src     ids.DeviceID
	Dst     ids.DeviceID
	TTL     uint32
	Copies  uint32
	Payload []byte
}

// FrameOffer opens a contact: the initiator's eligible bundle
// summaries plus a bounded sample of bundle ids it knows were
// delivered (the anti-packet vaccine that lets custodians purge dead
// copies).
type FrameOffer struct {
	From      ids.DeviceID
	Summaries []Summary
	Delivered []string
}

// FrameWant answers an OFFER: the ids the responder takes custody of,
// plus its own delivered-ids vaccine sample for the initiator.
type FrameWant struct {
	Want      []string
	Delivered []string
}

// FrameBundles ships the wanted bundles with their allocated copy
// budgets.
type FrameBundles struct {
	From    ids.DeviceID
	Bundles []Bundle
}

// FrameAck closes a contact: the ids the responder actually accepted
// custody of (stored, or consumed as destination). The initiator only
// splits or releases its local copies for acked ids, so a lost ack
// never loses custody.
type FrameAck struct {
	Accepted []string
}

// --- encoding ---

func appendIDs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = wire.AppendString(b, s)
	}
	return b
}

// MarshalOffer encodes a contact-opening offer frame.
func MarshalOffer(f FrameOffer) []byte {
	b := codec.Header(kindOffer)
	b = wire.AppendString(b, string(f.From))
	b = binary.AppendUvarint(b, uint64(len(f.Summaries)))
	for _, s := range f.Summaries {
		b = wire.AppendString(b, s.ID)
		b = wire.AppendString(b, string(s.Dst))
		b = binary.AppendUvarint(b, uint64(s.TTL))
		b = binary.AppendUvarint(b, uint64(s.Utility))
	}
	b = appendIDs(b, f.Delivered)
	return wire.Seal(b)
}

// MarshalWant encodes an offer answer frame.
func MarshalWant(f FrameWant) []byte {
	b := codec.Header(kindWant)
	b = appendIDs(b, f.Want)
	b = appendIDs(b, f.Delivered)
	return wire.Seal(b)
}

// MarshalBundles encodes a bundle transfer frame.
func MarshalBundles(f FrameBundles) []byte {
	b := codec.Header(kindBundles)
	b = wire.AppendString(b, string(f.From))
	b = binary.AppendUvarint(b, uint64(len(f.Bundles)))
	for _, bl := range f.Bundles {
		b = wire.AppendString(b, bl.ID)
		b = wire.AppendString(b, string(bl.Src))
		b = wire.AppendString(b, string(bl.Dst))
		b = binary.AppendUvarint(b, uint64(bl.TTL))
		b = binary.AppendUvarint(b, uint64(bl.Copies))
		b = wire.AppendBytes(b, bl.Payload)
	}
	return wire.Seal(b)
}

// MarshalAck encodes a contact-closing acceptance frame.
func MarshalAck(f FrameAck) []byte {
	b := codec.Header(kindAck)
	b = appendIDs(b, f.Accepted)
	return wire.Seal(b)
}

// --- decoding ---

func readIDs(r *wire.Reader, maxN int) ([]string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxN) {
		return nil, ErrBadFrame
	}
	if n == 0 {
		return nil, nil
	}
	// Cap the pre-allocation: a mangled count still has to be backed
	// by actual bytes before it grows the slice.
	out := make([]string, 0, min(int(n), 64))
	for i := uint64(0); i < n; i++ {
		s, err := r.Str(maxWireString)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// FrameKind peeks at a sealed frame's kind without validating the body.
// It still verifies the checksum, so a mangled kind byte is rejected
// rather than misrouted.
func FrameKind(data []byte) (byte, error) { return codec.Kind(data) }

// UnmarshalOffer decodes a contact-opening offer frame.
func UnmarshalOffer(data []byte) (FrameOffer, error) {
	var f FrameOffer
	r, err := codec.Open(data, kindOffer)
	if err != nil {
		return f, err
	}
	from, err := r.Str(maxWireString)
	if err != nil {
		return f, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return f, err
	}
	if n > maxWireSummaries {
		return f, ErrBadFrame
	}
	var sums []Summary
	if n > 0 {
		sums = make([]Summary, 0, min(int(n), 64))
	}
	for i := uint64(0); i < n; i++ {
		id, err := r.Str(maxWireString)
		if err != nil {
			return f, err
		}
		dst, err := r.Str(maxWireString)
		if err != nil {
			return f, err
		}
		ttl, err := r.Uvarint()
		if err != nil {
			return f, err
		}
		util, err := r.Uvarint()
		if err != nil {
			return f, err
		}
		if ttl == 0 || ttl > maxWireTTL || util > maxWireUtility {
			return f, ErrBadFrame
		}
		sums = append(sums, Summary{ID: id, Dst: ids.DeviceID(dst), TTL: uint32(ttl), Utility: uint32(util)})
	}
	delivered, err := readIDs(r, maxWireIDs)
	if err != nil {
		return f, err
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.From = ids.DeviceID(from)
	f.Summaries = sums
	f.Delivered = delivered
	return f, nil
}

// UnmarshalWant decodes an offer answer frame.
func UnmarshalWant(data []byte) (FrameWant, error) {
	var f FrameWant
	r, err := codec.Open(data, kindWant)
	if err != nil {
		return f, err
	}
	want, err := readIDs(r, maxWireIDs)
	if err != nil {
		return f, err
	}
	delivered, err := readIDs(r, maxWireIDs)
	if err != nil {
		return f, err
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.Want = want
	f.Delivered = delivered
	return f, nil
}

// UnmarshalBundles decodes a bundle transfer frame.
func UnmarshalBundles(data []byte) (FrameBundles, error) {
	var f FrameBundles
	r, err := codec.Open(data, kindBundles)
	if err != nil {
		return f, err
	}
	from, err := r.Str(maxWireString)
	if err != nil {
		return f, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return f, err
	}
	if n > maxWireBundles {
		return f, ErrBadFrame
	}
	var bundles []Bundle
	if n > 0 {
		bundles = make([]Bundle, 0, min(int(n), 64))
	}
	for i := uint64(0); i < n; i++ {
		id, err := r.Str(maxWireString)
		if err != nil {
			return f, err
		}
		src, err := r.Str(maxWireString)
		if err != nil {
			return f, err
		}
		dst, err := r.Str(maxWireString)
		if err != nil {
			return f, err
		}
		ttl, err := r.Uvarint()
		if err != nil {
			return f, err
		}
		copies, err := r.Uvarint()
		if err != nil {
			return f, err
		}
		if ttl == 0 || ttl > maxWireTTL || copies == 0 || copies > maxWireCopies {
			return f, ErrBadFrame
		}
		payload, err := r.Bytes(maxWirePayload)
		if err != nil {
			return f, err
		}
		bundles = append(bundles, Bundle{
			ID:      id,
			Src:     ids.DeviceID(src),
			Dst:     ids.DeviceID(dst),
			TTL:     uint32(ttl),
			Copies:  uint32(copies),
			Payload: payload,
		})
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.From = ids.DeviceID(from)
	f.Bundles = bundles
	return f, nil
}

// UnmarshalAck decodes a contact-closing acceptance frame.
func UnmarshalAck(data []byte) (FrameAck, error) {
	var f FrameAck
	r, err := codec.Open(data, kindAck)
	if err != nil {
		return f, err
	}
	acc, err := readIDs(r, maxWireIDs)
	if err != nil {
		return f, err
	}
	if err := r.Finish(); err != nil {
		return f, err
	}
	f.Accepted = acc
	return f, nil
}
