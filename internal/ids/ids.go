// Package ids defines the identifier types shared across the PeerHood
// reproduction: device addresses, member identifiers and service names.
//
// PeerHood identifies a peer by its technology-level device address
// (e.g. a Bluetooth address); the social layer identifies people by a
// MemberID carried in their profile. Keeping the two distinct mirrors
// the thesis, where PS_CHECKMEMBERID exists precisely because a device
// address does not name a person.
package ids

import (
	"fmt"
	"strings"
)

// DeviceID is the technology-independent address of a device in the
// simulated neighborhood. It plays the role of the Bluetooth/WLAN/GPRS
// address PeerHood stores in its neighbor table.
type DeviceID string

// String implements fmt.Stringer.
func (d DeviceID) String() string { return string(d) }

// Valid reports whether the device ID is non-empty and printable.
func (d DeviceID) Valid() bool { return validToken(string(d)) }

// MemberID names a person in the social network. The reference
// implementation derives it from the profile username.
type MemberID string

// String implements fmt.Stringer.
func (m MemberID) String() string { return string(m) }

// Valid reports whether the member ID is non-empty and printable.
func (m MemberID) Valid() bool { return validToken(string(m)) }

// ServiceName names a service registered in the PeerHood daemon, e.g.
// "PeerHoodCommunity".
type ServiceName string

// String implements fmt.Stringer.
func (s ServiceName) String() string { return string(s) }

// Valid reports whether the service name is non-empty and printable.
func (s ServiceName) Valid() bool { return validToken(string(s)) }

// GroupID names a dynamically discovered interest group. Groups are
// keyed by the normalized interest that formed them.
type GroupID string

// String implements fmt.Stringer.
func (g GroupID) String() string { return string(g) }

// DeviceIDf formats a device ID, e.g. DeviceIDf("bt-%02d", 3).
func DeviceIDf(format string, args ...any) DeviceID {
	return DeviceID(fmt.Sprintf(format, args...))
}

// validToken reports whether s is usable as an identifier: non-empty,
// no control characters, no embedded newlines (the wire protocol is
// line-oriented like the original C++ application's buffers).
func validToken(s string) bool {
	if s == "" {
		return false
	}
	if strings.ContainsAny(s, "\x00\n\r\t") {
		return false
	}
	return true
}

// Mix64 is the splitmix64 finalizer (Vigna): a cheap, well-distributed
// bijection on 64-bit words. It is the one mixer behind the event
// scheduler's tie-breaks, the fault plane's pure draws and the gossip
// and DTN seeded rngs, so a draw is a pure function of its inputs.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
