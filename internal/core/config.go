// Package orf implements the paper's contribution: an Online Random
// Forest (Saffari et al. 2009) specialized for disk failure prediction
// (Algorithm 1).
//
// The forest learns from a chronological sample stream, one labeled
// sample at a time:
//
//   - Online bagging (Oza & Russell 2001): each arriving sample is
//     replayed k times into each tree, with k drawn per tree from a
//     Poisson distribution. The paper's imbalance-aware variant (Eq. 3)
//     uses rate LambdaPos for positive samples and LambdaNeg << 1 for
//     negative samples, so the flood of healthy samples is thinned at
//     the same rate the offline baselines downsample it.
//   - Online tree growth: every leaf maintains a pool of random tests
//     "feature <= threshold" with per-side class statistics. A leaf
//     splits when it has absorbed at least MinParentSize (alpha) samples
//     AND the best test's Gini gain (Eqs. 1-2) reaches MinGain (beta).
//   - Unlearning: samples a tree does not select (k = 0) estimate that
//     tree's out-of-bag error. A tree whose OOBE exceeds OOBEThreshold
//     after AgeThreshold updates is discarded and regrown from scratch,
//     which is how the forest tracks distribution drift and defeats
//     model aging.
//
// A forest runs on its caller's goroutine: one sample is a microsecond
// of out-of-bag walks, less than waking a second goroutine costs. Each
// tree owns an independent deterministic RNG stream, so a seed fixes the
// result. Update and Predict must not be called concurrently with each
// other.
package core

// Config holds the ORF hyper-parameters. Zero values select the paper's
// defaults (section 4.4).
type Config struct {
	// Trees is T, the ensemble size. Default 30.
	Trees int
	// NumTests is N', the random-test pool size per leaf. The paper uses
	// N = 5,000 tests forest-wide; spread over 30 trees and their active
	// leaves this is on the order of tens of tests per leaf. Default 30.
	NumTests int
	// MinParentSize is alpha: the minimum (weighted) number of samples a
	// leaf must absorb before it may split. Default 200.
	MinParentSize float64
	// MinGain is beta: the minimum Gini information gain a split must
	// achieve. Default 0.1.
	MinGain float64
	// LambdaPos is the Poisson rate for positive samples. Default 1.
	LambdaPos float64
	// LambdaNeg is the Poisson rate for negative samples. Default 0.02.
	LambdaNeg float64
	// MaxDepth bounds tree depth to keep memory finite on endless
	// streams. Default 20.
	MaxDepth int

	// OOBEThreshold is thetaOOBE: a tree is a replacement candidate when
	// its discounted out-of-bag error exceeds this. Default 0.40.
	OOBEThreshold float64
	// AgeThreshold is thetaAGE: minimum updates before a tree may be
	// discarded, protecting infant trees. Default 3000.
	AgeThreshold int
	// OOBEDecay is the exponential forgetting factor of the per-class
	// out-of-bag error estimates, which makes OOBE track the *current*
	// distribution. Default 0.995.
	OOBEDecay float64
	// ReplaceCooldown is the minimum number of Update calls between two
	// tree replacements. Distribution drift tends to push many trees
	// over the OOBE threshold in the same period; replacing them all at
	// once would reset the whole forest and crater detection until it
	// relearns. Replacing at most one tree per cooldown keeps the
	// ensemble's knowledge while still cycling out stale trees.
	// Default 2000.
	ReplaceCooldown int
	// DisableReplacement turns tree discarding off (ablation switch).
	DisableReplacement bool

	// Seed drives every stochastic choice in the forest.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 30
	}
	if c.NumTests <= 0 {
		c.NumTests = 30
	}
	if c.MinParentSize <= 0 {
		c.MinParentSize = 200
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.1
	}
	if c.LambdaPos <= 0 {
		c.LambdaPos = 1
	}
	if c.LambdaNeg <= 0 {
		c.LambdaNeg = 0.02
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 20
	}
	if c.OOBEThreshold <= 0 {
		c.OOBEThreshold = 0.40
	}
	if c.AgeThreshold <= 0 {
		c.AgeThreshold = 3000
	}
	if c.OOBEDecay <= 0 {
		c.OOBEDecay = 0.995
	}
	if c.ReplaceCooldown <= 0 {
		c.ReplaceCooldown = 2000
	}
	return c
}
