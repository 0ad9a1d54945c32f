package main

import (
	"fmt"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
)

// paperTables maps a paper table name to its generator. The generators use
// the paper reproduction's fixed seeds: the eight tables are this repo's
// stand-ins for the paper's fixed data files, and their join cardinalities
// swing by up to ±20 % (SP⋈SPG) when the generator seed moves, which would
// bury every timing under input variance.
var paperTables = map[string]func(scale float64) *dataset.Dataset{
	"TS": datagen.TS, "TCB": datagen.TCB, "CAS": datagen.CAS, "CAR": datagen.CAR,
	"SP": datagen.SP, "SPG": datagen.SPG, "SCRC": datagen.SCRC, "SURA": datagen.SURA,
}

// symmetry is one of the eight symmetries of the unit square, chosen by the
// seed. Applying the same symmetry to every table and window gives a
// different instance (different trees, histograms and row ids) whose join
// cardinalities are those of the untransformed data.
type symmetry struct{ swap, flipX, flipY bool }

func symmetryOf(seed int64) symmetry {
	s := uint64(seed)
	return symmetry{swap: s&1 != 0, flipX: s&2 != 0, flipY: s&4 != 0}
}

func (s symmetry) rect(r geom.Rect) geom.Rect {
	if s.swap {
		r = geom.Rect{MinX: r.MinY, MinY: r.MinX, MaxX: r.MaxY, MaxY: r.MaxX}
	}
	if s.flipX {
		r.MinX, r.MaxX = 1-r.MaxX, 1-r.MinX
	}
	if s.flipY {
		r.MinY, r.MaxY = 1-r.MaxY, 1-r.MinY
	}
	return r
}

// makeTable generates one paper table at the given scale under the symmetry.
func makeTable(name string, scale float64, sym symmetry) (*dataset.Dataset, error) {
	gen, ok := paperTables[name]
	if !ok {
		return nil, fmt.Errorf("unknown paper table %q", name)
	}
	d := gen(scale)
	for i, r := range d.Items {
		d.Items[i] = sym.rect(r)
	}
	return d, nil
}
