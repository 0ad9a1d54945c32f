package ingest

import (
	"spatialsel/internal/geom"
	"spatialsel/internal/rtree"
)

// overlay is the write side of a table's published read image: the packed
// base from the last fold, which is never written again and is shared by
// pointer with every snapshot until the next fold, and what has changed since —
// tombstones over base slots and a small tree of the items inserted. A
// publish packs only that small tree and copies the bitmap (image), so its
// cost follows the overlay, not the table; the fold (Table.Repack) is what
// builds a new base and starts an empty overlay.
//
// Tombstones only ever name base slots: deleting an item that still lives in
// the delta removes it there.
type overlay struct {
	base *rtree.Packed
	// slotOf maps an item id to its base slot, -1 for an id the base does not
	// hold; ids past its end were assigned after the fold.
	slotOf []int32
	dead   []uint64 // the writer's bitmap over base slots; readers get copies
	nDead  int
	delta  *rtree.Tree
}

// newOverlay starts an empty overlay on base, an overlay-free image holding a
// subset of the ids below nIDs.
func newOverlay(base *rtree.Packed, nIDs int) *overlay {
	o := &overlay{
		base:   base,
		slotOf: make([]int32, nIDs),
		dead:   make([]uint64, (base.Len()+63)/64),
		delta:  rtree.MustNew(),
	}
	for id := range o.slotOf {
		o.slotOf[id] = -1
	}
	slot := int32(0)
	base.VisitItems(func(id int, _ geom.Rect) {
		o.slotOf[id] = slot
		slot++
	})
	return o
}

func (o *overlay) insert(id int, r geom.Rect) { o.delta.Insert(r, id) }

// remove takes a live item out of the image and reports whether it was there.
func (o *overlay) remove(id int, r geom.Rect) bool {
	if id >= len(o.slotOf) || o.slotOf[id] < 0 {
		return o.delta.Delete(r, id)
	}
	s := uint(o.slotOf[id])
	if o.dead[s>>6]>>(s&63)&1 != 0 {
		return false
	}
	o.dead[s>>6] |= 1 << (s & 63)
	o.nDead++
	return true
}

// image returns the immutable read image of the overlay's current state: the
// base itself while nothing has changed, otherwise the base's planes under a
// copy of the bitmap and a freshly packed delta.
func (o *overlay) image() *rtree.Packed {
	if o.nDead == 0 && o.delta.Len() == 0 {
		return o.base
	}
	var dead []uint64
	if o.nDead > 0 {
		dead = append(dead, o.dead...)
	}
	var delta *rtree.Packed
	if o.delta.Len() > 0 {
		delta = rtree.Pack(o.delta)
	}
	return o.base.WithOverlay(dead, delta)
}
