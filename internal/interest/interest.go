// Package interest handles the interest terms the social network groups
// people by: normalization (so "Football" and " football " are one
// interest) and the optional semantics layer the thesis names as future
// work — "teaching the semantics to the environment by combining terms
// meaning the same issue" (§5.1), e.g. merging "biking" and "cycling"
// into one group.
package interest

import (
	"sort"
	"strings"
	"sync"
)

// Normalize canonicalizes an interest term: lowercase, trimmed,
// internal whitespace collapsed to single spaces. A term that is
// already in that form — the common case, since stored interests are
// normalized once — is returned as is, without allocating.
func Normalize(term string) string {
	if isNormalASCII(term) {
		return term
	}
	return strings.Join(strings.Fields(strings.ToLower(term)), " ")
}

// isNormalASCII reports whether term is ASCII with no upper-case
// letter, no whitespace but single inner spaces, and no space at
// either end: exactly the ASCII strings Normalize maps to themselves.
func isNormalASCII(term string) bool {
	for i := 0; i < len(term); i++ {
		switch b := term[i]; {
		case b >= 0x80, 'A' <= b && b <= 'Z', '\t' <= b && b <= '\r':
			return false
		case b == ' ' && (i == 0 || i == len(term)-1 || term[i-1] == ' '):
			return false
		}
	}
	return true
}

// NormalizeAll normalizes a list, dropping empties and duplicates,
// preserving first-seen order.
func NormalizeAll(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		n := Normalize(t)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// Semantics is the taught-synonym layer: a union-find over normalized
// terms. The zero value is NOT ready to use; call NewSemantics. A nil
// *Semantics is valid and means "no semantics taught" — every term is
// its own class — so callers can pass nil to disable the feature (the
// thesis's baseline behaviour, where biking and cycling form two
// groups).
type Semantics struct {
	mu     sync.Mutex
	parent map[string]string
	// gen counts effective Teach calls — merges that actually joined two
	// classes. Group-discovery caches include it in their snapshot key:
	// a newly taught synonym can change which groups form even when no
	// device's interests moved.
	gen uint64
}

// NewSemantics returns an empty semantics layer.
func NewSemantics() *Semantics {
	return &Semantics{parent: make(map[string]string)}
}

// Teach records that two terms mean the same issue. Terms are
// normalized first. Teaching is transitive: teach(a,b) and teach(b,c)
// put a, b, c in one class.
func (s *Semantics) Teach(a, b string) {
	if s == nil {
		return
	}
	na, nb := Normalize(a), Normalize(b)
	if na == "" || nb == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ra, rb := s.find(na), s.find(nb)
	if ra == rb {
		return
	}
	// Deterministic representative: the lexicographically smaller root.
	if rb < ra {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
	s.gen++
}

// Generation returns a counter that advances whenever Teach merges two
// previously distinct classes. Nil and never-taught layers report 0.
// No-op teaches (same class, empty terms) leave it unchanged.
func (s *Semantics) Generation() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// find returns the class root of a normalized term, creating the
// singleton class on first sight. Callers hold s.mu. Path compression
// keeps chains short.
func (s *Semantics) find(term string) string {
	root, ok := s.parent[term]
	if !ok {
		s.parent[term] = term
		return term
	}
	if root == term {
		return term
	}
	r := s.find(root)
	s.parent[term] = r
	return r
}

// Canon returns the canonical representative of a term's synonym
// class. Terms never taught map to themselves (normalized).
func (s *Semantics) Canon(term string) string {
	n := Normalize(term)
	if s == nil || n == "" {
		return n
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parent[n]; !ok {
		return n
	}
	return s.find(n)
}

// Same reports whether two terms mean the same issue.
func (s *Semantics) Same(a, b string) bool {
	return s.Canon(a) == s.Canon(b) && Normalize(a) != ""
}

// Class returns every taught term in the same class as term, sorted,
// including the term itself if taught.
func (s *Semantics) Class(term string) []string {
	n := Normalize(term)
	if s == nil || n == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parent[n]; !ok {
		return []string{n}
	}
	root := s.find(n)
	var out []string
	for t := range s.parent {
		if s.find(t) == root {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// CanonAll maps a list of terms to their canonical representatives,
// deduplicating (two synonyms collapse to one entry) and preserving
// first-seen order.
func (s *Semantics) CanonAll(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		c := s.Canon(t)
		if c == "" || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// Classes exports every taught synonym class with at least two terms,
// each sorted, classes ordered by representative — a form suitable for
// persistence.
func (s *Semantics) Classes() [][]string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	byRoot := make(map[string][]string)
	for term := range s.parent {
		root := s.find(term)
		byRoot[root] = append(byRoot[root], term)
	}
	s.mu.Unlock()
	roots := make([]string, 0, len(byRoot))
	for root, terms := range byRoot {
		if len(terms) >= 2 {
			roots = append(roots, root)
		}
	}
	sort.Strings(roots)
	out := make([][]string, 0, len(roots))
	for _, root := range roots {
		sort.Strings(byRoot[root])
		out = append(out, byRoot[root])
	}
	return out
}

// TeachClasses merges previously exported classes back in; it is the
// inverse of Classes.
func (s *Semantics) TeachClasses(classes [][]string) {
	if s == nil {
		return
	}
	for _, class := range classes {
		for i := 1; i < len(class); i++ {
			s.Teach(class[0], class[i])
		}
	}
}
