package rtree

// Clone returns a deep copy of the tree: no node is shared with the
// original, so the copy can be published to concurrent readers while the
// original keeps mutating (the read/write split the live-ingest path uses).
// The access counter starts at zero in the copy.
//
// Cost is O(n) in nodes and entries — proportional to one full scan, far
// cheaper than rebuilding, and paid once per published batch rather than per
// record.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		size:       t.size,
		height:     t.height,
		maxEntries: t.maxEntries,
		minEntries: t.minEntries,
	}
	if t.root != nil {
		c.root = cloneNode(t.root)
	}
	return c
}

func cloneNode(n *node) *node {
	m := &node{leaf: n.leaf, entries: make([]entry, len(n.entries))}
	copy(m.entries, n.entries)
	if !n.leaf {
		for i := range m.entries {
			m.entries[i].child = cloneNode(m.entries[i].child)
		}
	}
	return m
}
