package core

import "fmt"

// FrozenForest is an immutable, read-optimized snapshot of a Forest's
// decision structure. Freeze flattens every live tree's oNode slice —
// whose 88-byte nodes drag leaf statistics, candidate-test pools and
// split provenance through cache on every traversal — into one packed
// walk array: a 16-byte record per node, preorder per tree, with child
// indexes pre-offset so the hot loop never adds a per-tree base. A
// traversal step touches exactly one record (a quarter cache line)
// instead of one sparse 88-byte node, so far more of the forest stays
// cache-resident.
//
// Scores are bit-identical to Forest.PredictProba at the freeze point:
// trees are visited in the same order, each leaf probability is computed
// with the same Laplace expression, and the final division uses the same
// divisor. A FrozenForest is never mutated after Freeze returns, so any
// number of goroutines may Score concurrently with no synchronization —
// this is the read path's publication unit (see Engine).
//
// Two read paths share the layout. Score walks one sample root-to-leaf
// per tree — the /v1/predict shape. ScoreBatchInto advances a whole
// block of samples through each tree together (see scoreBlock), the
// /v1/predict/batch shape: one tree's records are streamed through
// cache once and reused by every sample in the block, instead of being
// re-fetched per sample.
type FrozenForest struct {
	dim     int
	divisor float64 // float64(tree count), the live path's divisor
	roots   []int32 // root node index per tree, in tree order

	// walk holds the packed per-node records, laid out preorder tree
	// after tree (tree ti owns [roots[ti], roots[ti+1]), the last tree
	// runs to len(walk)). Leaves reuse the thresh slot for their
	// probability — keeping the walk single-stream.
	walk []frozenNode

	updates int64
}

// frozenNode is the packed per-node record the score kernels traverse.
// The left child is implicit (id+1, preorder layout); feature < 0 marks
// a leaf whose positive probability sits in thresh.
type frozenNode struct {
	thresh  float64
	feature int32
	right   int32
}

// BatchBlock is the sample-block width of the batch scoring kernel.
// ScoreBatchInto processes its input in blocks of this many samples;
// callers that stage projection scratch (FrozenModel) size it to match
// so their blocking lines up with the kernel's.
const BatchBlock = 64

// treeEnd returns the exclusive end of tree ti's walk range.
func (fz *FrozenForest) treeEnd(ti int) int32 {
	if ti+1 < len(fz.roots) {
		return fz.roots[ti+1]
	}
	return int32(len(fz.walk))
}

// Freeze builds a FrozenForest from the forest's current state. Like
// Stats and PredictProba it must not run concurrently with Update (tree
// structure mutates); the returned snapshot is immutable and safe to
// share across goroutines.
//
// Freeze is incremental: every tree carries a dirty bit, set whenever an
// update actually mutates it (a Poisson draw k > 0, or a replacement
// reset) and cleared here. Trees untouched since the previous Freeze are
// spliced out of the previous snapshot's walk array — a straight copy,
// plus a pointer rebase when earlier trees changed size — instead of
// being re-flattened node by node, so steady-state republish cost is
// proportional to the trees that actually changed. If nothing changed,
// Freeze returns a new header sharing the previous snapshot's arrays
// outright.
func (f *Forest) Freeze() *FrozenForest {
	prev := f.lastFrozen
	if prev != nil {
		clean := true
		for _, t := range f.trees {
			if t.dirty {
				clean = false
				break
			}
		}
		if clean {
			// Nothing moved: share the previous snapshot's immutable
			// arrays wholesale, refreshing only the update counter.
			fz := *prev
			fz.updates = f.updates
			f.lastFrozen = &fz
			return &fz
		}
	}
	total := 0
	for _, t := range f.trees {
		total += len(t.nodes)
	}
	fz := &FrozenForest{
		dim:     f.dim,
		divisor: float64(len(f.trees)),
		roots:   make([]int32, len(f.trees)),
		walk:    make([]frozenNode, 0, total),
		updates: f.updates,
	}
	for ti, t := range f.trees {
		base := int32(len(fz.walk))
		fz.roots[ti] = base
		if prev != nil && !t.dirty {
			// Splice the untouched tree's records from the previous
			// snapshot. Child indexes are pre-offset by the tree's old
			// base, so if earlier trees changed size the spliced records
			// shift by a constant delta — a linear add, no re-walk.
			start, end := prev.roots[ti], prev.treeEnd(ti)
			fz.walk = append(fz.walk, prev.walk[start:end]...)
			if delta := base - start; delta != 0 {
				seg := fz.walk[base:]
				for i := range seg {
					if seg[i].feature >= 0 {
						seg[i].right += delta
					}
				}
			}
			continue
		}
		f.flattenTree(fz, t, base)
		t.dirty = false
	}
	f.lastFrozen = fz
	return fz
}

// flattenTree appends one live tree to fz.walk in preorder (node, left
// subtree, right subtree): the left child always sits at id+1, so a
// left-going traversal step walks sequential memory the prefetcher
// already pulled in, and only right turns jump. The preorder copy only
// includes reachable nodes, dropping any unreachable ones a live tree
// might carry. The pos/order/stack scratch lives on the Forest and is
// reused across trees and across refreezes — incremental refreeze makes
// this a steady-state hot path, so it must not allocate per tree.
func (f *Forest) flattenTree(fz *FrozenForest, t *onlineTree, base int32) {
	if cap(f.freezePos) < len(t.nodes) {
		f.freezePos = make([]int32, len(t.nodes))
	}
	pos := f.freezePos[:len(t.nodes)] // live id -> frozen position (within tree)
	order := f.freezeOrder[:0]        // frozen position -> live id
	stack := f.freezeStack[:0]
	stack = append(stack, 0)
	for len(stack) > 0 {
		live := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pos[live] = int32(len(order))
		order = append(order, live)
		if n := &t.nodes[live]; n.feature >= 0 {
			stack = append(stack, n.right, n.left) // left popped first
		}
	}
	for _, live := range order {
		n := &t.nodes[live]
		fn := frozenNode{feature: n.feature}
		if n.feature >= 0 {
			fn.thresh = n.thresh
			fn.right = base + pos[n.right]
		} else {
			fn.thresh = n.prob()
		}
		fz.walk = append(fz.walk, fn)
	}
	f.freezeOrder, f.freezeStack = order[:0], stack[:0]
}

// Score returns the mean positive probability across trees for x,
// bit-identical to what Forest.PredictProba returned at the freeze
// point. It allocates nothing and takes no locks.
func (fz *FrozenForest) Score(x []float64) (float64, error) {
	if len(x) != fz.dim {
		return 0, fmt.Errorf("core: Score dimension %d, want %d", len(x), fz.dim)
	}
	return fz.score(x), nil
}

// score is the validated single-sample walk.
func (fz *FrozenForest) score(x []float64) float64 {
	walk := fz.walk
	sum := 0.0
	for _, id := range fz.roots {
		n := walk[id]
		for n.feature >= 0 {
			// Preorder layout: the left child is always id+1, so only
			// right turns jump in memory.
			kid := id + 1
			if x[n.feature] > n.thresh {
				kid = n.right
			}
			id = kid
			n = walk[id]
		}
		sum += n.thresh // a leaf's thresh slot holds its probability
	}
	return sum / fz.divisor
}

// ScoreBatchInto scores every vector of X into dst (grown or truncated
// to len(X)) and returns dst. The whole batch is validated upfront — on
// a dimension mismatch nothing is scored and dst is returned unchanged.
// Steady state with a recycled dst allocates nothing. Safe to call from
// many goroutines with distinct dst slices.
//
// Scores are bit-identical to calling Score per vector, but the kernel
// is batch-shaped: samples advance through the node arrays in blocks of
// BatchBlock (see scoreBlock), so one tree's walk records stream
// through cache once per block instead of once per sample.
func (fz *FrozenForest) ScoreBatchInto(dst []float64, X [][]float64) ([]float64, error) {
	for i := range X {
		if len(X[i]) != fz.dim {
			return dst, fmt.Errorf("core: batch vector %d dimension %d, want %d",
				i, len(X[i]), fz.dim)
		}
	}
	if cap(dst) < len(X) {
		dst = make([]float64, len(X))
	} else {
		dst = dst[:len(X)]
	}
	for base := 0; base < len(X); base += BatchBlock {
		n := min(BatchBlock, len(X)-base)
		fz.scoreBlock(dst[base:base+n], X[base:base+n])
	}
	return dst, nil
}

// flatRowMax is the widest feature vector the batch kernel stages into
// its stack-resident flat matrix (rows padded to a power of two so the
// sample index recovers with a shift). Wider inputs — nothing in this
// repo, but the API allows them — are scored one by one with score.
const flatRowMax = 64

// scoreBlock is the batch kernel: it advances a whole block of samples
// (≤ BatchBlock) through the forest together, tree-major and
// level-synchronous. The outer loop walks trees in ensemble order (so
// per-sample accumulation order — and therefore the result bits — match
// the sequential walk exactly); within a tree, every still-descending
// sample takes one step per pass over the active list. The effect on
// memory: a tree's shared upper levels are touched once per pass instead
// of once per sample, the B independent node loads per pass overlap in
// the memory pipeline, and by the time the block leaves a tree its walk
// records have been re-used up to B times while cache-resident — the
// QuickScorer/VPred observation applied to an online forest.
//
// All kernel scratch is fixed-size stack arrays, so it allocates
// nothing. Each pass advances every sample exactly ONE level on
// purpose: the per-sample node loads within a pass are mutually
// independent, so the out-of-order core issues a blockful of them
// concurrently — deeper unrolling (advancing a sample several levels
// per pass) chains the loads back together and measures slower.
//
// Two bookkeeping choices matter here (both profile-driven): the
// active list packs each sample's flat-matrix offset and node cursor
// into one int64, so a descend step is a single load and a single
// store with no side lookups; and the feature vectors are staged into
// a flat matrix whose rows are padded to a power of two, so the
// feature load is one indexed access (no slice-of-slices indirection)
// and the destination index recovers with a shift.
func (fz *FrozenForest) scoreBlock(dst []float64, X [][]float64) {
	if fz.dim > flatRowMax {
		for i, x := range X {
			dst[i] = fz.score(x)
		}
		return
	}
	shift := 0
	for 1<<shift < fz.dim {
		shift++
	}
	var flat [BatchBlock << 6]float64 // BatchBlock rows of up to flatRowMax
	var cur [BatchBlock]int64         // sampleOffset<<32 | node cursor
	walk := fz.walk
	n := len(X)
	for s, x := range X {
		copy(flat[s<<shift:], x)
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, root := range fz.roots {
		active := cur[:n]
		for i := range active {
			active[i] = int64(i<<shift)<<32 | int64(root)
		}
		for len(active) > 8 {
			w := 0
			for _, c := range active {
				nd := walk[int32(c)]
				if nd.feature >= 0 {
					// kid must stay a bare int32 so the split compare
					// compiles to a conditional move; folding the
					// offset repack into the taken path turns it into
					// a real (mispredicting) branch and costs 2x.
					kid := int32(c) + 1
					if flat[int(c>>32)+int(nd.feature)] > nd.thresh {
						kid = nd.right
					}
					active[w] = c>>32<<32 | int64(kid)
					w++
				} else {
					// leaf: thresh slot holds the probability
					dst[int(c>>32)>>shift] += nd.thresh
				}
			}
			active = active[:w]
		}
		// Straggler tail: once few samples remain there isn't enough
		// width left for the passes to overlap loads, so the last deep
		// descents finish with the plain root-to-leaf walk instead of
		// paying per-level pass overhead.
		for _, c := range active {
			id := int32(c)
			off := int(c >> 32)
			nd := walk[id]
			for nd.feature >= 0 {
				kid := id + 1
				if flat[off+int(nd.feature)] > nd.thresh {
					kid = nd.right
				}
				id = kid
				nd = walk[id]
			}
			dst[off>>shift] += nd.thresh
		}
	}
	for i := range dst {
		dst[i] /= fz.divisor
	}
}

// Dim returns the input dimensionality.
func (fz *FrozenForest) Dim() int { return fz.dim }

// Trees returns the ensemble size.
func (fz *FrozenForest) Trees() int { return len(fz.roots) }

// Nodes returns the total node count across trees.
func (fz *FrozenForest) Nodes() int { return len(fz.walk) }

// Updates returns the number of forest updates absorbed at freeze time.
func (fz *FrozenForest) Updates() int64 { return fz.updates }
