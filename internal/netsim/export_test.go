package netsim

// ConnLinkUp exposes the per-message link check on a conn's resolved
// slots to the external test package.
func ConnLinkUp(c *Conn) bool { return c.linkUp() }
