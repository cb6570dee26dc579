package netsim

// ConnLinkUp exposes the per-message link check on a conn's resolved
// slots to the external test package.
func ConnLinkUp(c *Conn) bool { return c.linkUp() }

// FreePairs reports how many recycled conn pairs wait on the network's
// free list.
func FreePairs(n *Network) int {
	n.pairMu.Lock()
	defer n.pairMu.Unlock()
	return len(n.freePairs)
}

// SamePair reports whether two conn ends live in one pair allocation.
func SamePair(a, b *Conn) bool { return a.pair == b.pair }
