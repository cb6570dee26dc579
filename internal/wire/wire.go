// Package wire is the sealed-frame codec the gossip and DTN planes
// share (DESIGN.md, "Shared plumbing"). Every frame is
//
//	magic(1) version(1) kind(1) body... checksum(8)
//
// where the checksum is FNV-64a over magic..body, little-endian. The
// body is built from uvarints and length-prefixed strings. Decoding is
// strict: the checksum must match, every length must fit the caller's
// cap, and the body must be consumed exactly. Anything else is the
// plane's own bad-frame error, never a panic.
package wire

import (
	"encoding/binary"
	"hash/fnv"
)

// Codec is one plane's frame family: its magic byte and version, the
// range of kinds it defines, and the error every malformed frame
// reports.
type Codec struct {
	Magic, Version   byte
	MinKind, MaxKind byte
	Bad              error
}

// headerLen and sumLen bound the smallest possible frame.
const (
	headerLen = 3
	sumLen    = 8
)

// Header starts a frame of the given kind.
func (c Codec) Header(kind byte) []byte {
	return []byte{c.Magic, c.Version, kind}
}

// Seal appends the checksum over everything built so far.
func Seal(body []byte) []byte {
	h := fnv.New64a()
	_, _ = h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// body verifies the length, checksum, magic and version, and returns
// the frame without its checksum.
func (c Codec) body(data []byte) ([]byte, error) {
	if len(data) < headerLen+sumLen {
		return nil, c.Bad
	}
	body, sum := data[:len(data)-sumLen], data[len(data)-sumLen:]
	h := fnv.New64a()
	_, _ = h.Write(body)
	if binary.LittleEndian.Uint64(sum) != h.Sum64() {
		return nil, c.Bad
	}
	if body[0] != c.Magic || body[1] != c.Version {
		return nil, c.Bad
	}
	return body, nil
}

// Open validates a sealed frame of the given kind and returns a reader
// positioned at its body.
func (c Codec) Open(data []byte, kind byte) (*Reader, error) {
	body, err := c.body(data)
	if err != nil {
		return nil, err
	}
	if body[2] != kind {
		return nil, c.Bad
	}
	return &Reader{b: body, off: headerLen, bad: c.Bad}, nil
}

// Kind peeks at a sealed frame's kind without decoding the body. It
// still verifies the checksum, so a mangled kind byte is rejected
// rather than misrouted.
func (c Codec) Kind(data []byte) (byte, error) {
	body, err := c.body(data)
	if err != nil {
		return 0, err
	}
	k := body[2]
	if k < c.MinKind || k > c.MaxKind {
		return 0, c.Bad
	}
	return k, nil
}

// Reader decodes a frame body. Every failure is the codec's bad-frame
// error.
type Reader struct {
	b   []byte
	off int
	bad error
}

// Uvarint reads one uvarint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, r.bad
	}
	r.off += n
	return v, nil
}

// take reads a uvarint length of at most maxLen and returns that many
// body bytes, still aliasing the frame.
func (r *Reader) take(maxLen int) ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxLen) {
		return nil, r.bad
	}
	return r.Raw(int(n))
}

// Str reads a length-prefixed string of at most maxLen bytes.
func (r *Reader) Str(maxLen int) (string, error) {
	p, err := r.take(maxLen)
	return string(p), err
}

// Bytes reads a length-prefixed byte string of at most maxLen bytes
// into a fresh slice.
func (r *Reader) Bytes(maxLen int) ([]byte, error) {
	p, err := r.take(maxLen)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), p...), nil
}

// Raw reads the next n bytes, unprefixed, aliasing the frame.
func (r *Reader) Raw(n int) ([]byte, error) {
	if r.off+n > len(r.b) {
		return nil, r.bad
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p, nil
}

// Finish reports whether the body was consumed exactly.
func (r *Reader) Finish() error {
	if r.off != len(r.b) {
		return r.bad
	}
	return nil
}
