// Package core implements the thesis's primary contribution: the social
// networking middleware that sits on top of PeerHood (chapter 5). It
// provides the dynamic group discovery algorithm of Figure 6 — the
// automatic formation of per-interest groups among nearby peers — the
// continuous group management that reacts as devices enter and leave
// the neighborhood (Figures 2 and 5), and the trust levels that gate
// access to profile features (§5.1).
//
// The package is transport-agnostic: it consumes Member snapshots (who
// is nearby and what they are interested in) that the community layer
// extracts over PeerHood, and produces Groups and membership events.
package core

import (
	"sort"

	"repro/internal/ids"
	"repro/internal/interest"
)

// Member is one social-network participant as seen from the local
// device: the device carrying them, their member identity and their
// advertised interests.
type Member struct {
	Device    ids.DeviceID
	ID        ids.MemberID
	Interests []string
}

// NormalizedInterests returns the member's interests mapped through the
// semantics layer (nil-safe) and deduplicated.
func (m Member) NormalizedInterests(sem *interest.Semantics) []string {
	return sem.CanonAll(m.Interests)
}

// Group is one dynamically discovered interest group: the canonical
// interest that formed it and its members (always including the active
// user), sorted by member ID.
type Group struct {
	Interest string
	Members  []Member
}

// GroupID returns the group's identity; groups are keyed by their
// canonical interest.
func (g Group) GroupID() ids.GroupID { return ids.GroupID(g.Interest) }

// MemberIDs returns the member identities in order.
func (g Group) MemberIDs() []ids.MemberID {
	out := make([]ids.MemberID, 0, len(g.Members))
	for _, m := range g.Members {
		out = append(out, m.ID)
	}
	return out
}

// Has reports whether a member is in the group.
func (g Group) Has(id ids.MemberID) bool {
	for _, m := range g.Members {
		if m.ID == id {
			return true
		}
	}
	return false
}

// DiscoverGroups is the dynamic group discovery algorithm of Figure 6:
//
//	collect the list of active user's personal interests
//	get the list of all the nearby devices
//	for each personal interest of the active user:
//	    for each nearby member:
//	        if any interest of the member matches the personal interest:
//	            list both in the same interest group
//
// A group forms only when at least one nearby member shares the
// interest ("groups are formed dynamically, if any interest matches
// between them"). Interests are compared through the semantics layer,
// so taught synonyms ("biking"/"cycling") land in one group; pass a nil
// *interest.Semantics for the thesis's baseline behaviour where they
// form two groups.
//
// The result is deterministic: groups sorted by interest, members by
// member ID (the active user first).
func DiscoverGroups(active Member, nearby []Member, sem *interest.Semantics) []Group {
	personals := active.NormalizedInterests(sem)
	if len(personals) == 0 {
		return nil
	}
	// Each neighbour's interests are canonicalized once, not once per
	// personal interest.
	canon := make([][]string, len(nearby))
	for i, other := range nearby {
		if other.ID != active.ID {
			canon[i] = other.NormalizedInterests(sem)
		}
	}
	var groups []Group
	for _, personal := range personals {
		group := Group{Interest: personal, Members: []Member{active}}
		for i, other := range nearby {
			if other.ID == active.ID {
				continue
			}
			for _, theirs := range canon[i] {
				if theirs == personal {
					group.Members = append(group.Members, other)
					break
				}
			}
		}
		if len(group.Members) > 1 {
			sortMembersKeepFirst(group.Members)
			groups = append(groups, group)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Interest < groups[j].Interest })
	return groups
}

// AllInterestsNearby returns the union of interests advertised by the
// active user and the nearby members, canonicalized, sorted — what the
// Get Interests List operation (Figure 12) displays.
func AllInterestsNearby(active Member, nearby []Member, sem *interest.Semantics) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(terms []string) {
		for _, t := range sem.CanonAll(terms) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	add(active.Interests)
	for _, m := range nearby {
		add(m.Interests)
	}
	sort.Strings(out)
	return out
}

// sortMembersKeepFirst sorts members[1:] by ID, keeping the active user
// at the head.
func sortMembersKeepFirst(members []Member) {
	if len(members) < 3 {
		return
	}
	rest := members[1:]
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
}
