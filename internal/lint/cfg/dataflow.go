package cfg

// Lattice describes the fact domain of a forward dataflow problem. The
// analyzers' facts are small maps (held locks), so the engine works with
// explicit Clone/Join/Equal functions rather than demanding immutability.
type Lattice[F any] struct {
	Bottom func() F       // the no-information fact (empty set)
	Clone  func(F) F      // independent copy; Join may mutate its first arg
	Join   func(a, b F) F // merge b into a at a control-flow merge, return the result
	Equal  func(a, b F) bool
}

// Forward runs a forward dataflow analysis to fixpoint and returns the fact
// at the entry of every block. boundary is the fact entering the function.
// transfer must be pure (it runs multiple times per block): analyzers report
// in a separate final pass that replays transfer over the stabilized entry
// facts.
//
// Termination needs a monotone transfer over a finite lattice, which every
// sdbvet fact domain satisfies (sets over the finitely many identifiers in
// one function). A defensive iteration cap turns an accidental oscillation
// into a conservative (possibly incomplete) result instead of a hang.
func Forward[F any](g *Graph, lat Lattice[F], boundary F, transfer func(*Block, F) F) map[*Block]F {
	in := make(map[*Block]F, len(g.Blocks))
	out := make(map[*Block]F, len(g.Blocks))
	maxRounds := 4*len(g.Blocks) + 8
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, blk := range g.Blocks {
			var f F
			if blk == g.Entry {
				f = lat.Clone(boundary)
			} else {
				f = lat.Bottom()
			}
			for _, p := range blk.Preds {
				if o, ok := out[p]; ok {
					f = lat.Join(f, lat.Clone(o))
				}
			}
			in[blk] = f
			o := transfer(blk, lat.Clone(f))
			if prev, ok := out[blk]; !ok || !lat.Equal(prev, o) {
				out[blk] = o
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return in
}
