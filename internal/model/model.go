// Package model implements the paper's two learning frameworks on top of
// encoded hypervectors.
//
// Classification (Section 2.2): each class accumulates the bundle of its
// training samples' encodings into a class-vector prototype; inference
// returns the class whose prototype is nearest to the query. An optional
// online-refinement pass (the standard retraining extension in the HDC
// literature) moves misclassified samples from the wrong prototype to the
// right one on the integer accumulators.
//
// Regression (Section 2.3): a single model hypervector memorizes the bundle
// of φ(x) ⊗ φℓ(y) pairs. Prediction unbinds the query (binding is its own
// inverse), cleans up against the label basis and decodes.
//
// # Concurrency
//
// Reads (Predict, Scores, ClassVector, Model, PredictVector) are safe to
// call from any number of goroutines, including the first read after
// training: the lazily finalized prototypes live behind an atomic pointer
// and the finalization itself is serialized by a mutex, so exactly one
// goroutine thresholds the accumulators while the rest wait and then share
// the published result. Writes (Add, Sub, Refine, the batch variants) are
// NOT safe concurrently with each other or with reads — serve them through
// a single writer (see internal/serve for the lock-free snapshot layer
// built on top of this contract).
package model

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hdcirc/internal/bitvec"
	"hdcirc/internal/embed"
	"hdcirc/internal/index"
	"hdcirc/internal/rng"
)

// ---------------------------------------------------------------------------
// Classifier
// ---------------------------------------------------------------------------

// Classifier is the centroid HDC classification model M = {M_1, …, M_k}.
type Classifier struct {
	k, d    int
	accs    []*bitvec.Accumulator
	src     *rng.Stream      // tie coins for Finalize, unless tieVecs is set
	tieVecs []*bitvec.Vector // optional fixed per-class tie vectors; see SetTieVectors
	ixCfg   index.Config     // how Predict searches the prototypes; see SetIndexConfig

	mu    sync.Mutex                // serializes finalization
	class atomic.Pointer[index.Set] // finalized prototypes; nil until finalize
}

// NewClassifier creates a classifier over k classes and dimension d. Ties
// in the prototype majority are broken randomly from a substream of seed.
func NewClassifier(k, d int, seed uint64) *Classifier {
	if k <= 0 {
		panic(fmt.Sprintf("model: class count must be positive, got %d", k))
	}
	if d <= 0 {
		panic(fmt.Sprintf("model: dimension must be positive, got %d", d))
	}
	accs := make([]*bitvec.Accumulator, k)
	for i := range accs {
		accs[i] = bitvec.NewAccumulator(d)
	}
	return &Classifier{
		k: k, d: d,
		accs: accs,
		src:  rng.Sub(seed, "classifier/ties"),
	}
}

// NumClasses returns k.
func (c *Classifier) NumClasses() int { return c.k }

// Dim returns the hypervector dimension.
func (c *Classifier) Dim() int { return c.d }

// SetTieVectors switches finalization from the default random tie coins to
// fixed per-class tie vectors: class i's prototype becomes
// accs[i].ThresholdTieVector(tvs[i]). This makes Finalize a pure,
// idempotent function of the accumulator state — the same accumulators
// always threshold to the same prototypes, regardless of how many times or
// in what order classes are finalized — which is what snapshot-based
// serving (internal/serve) and cross-shard determinism need. Pass vectors
// of the classifier's dimension, one per class; call before training.
func (c *Classifier) SetTieVectors(tvs []*bitvec.Vector) {
	if len(tvs) != c.k {
		panic(fmt.Sprintf("model: %d tie vectors for %d classes", len(tvs), c.k))
	}
	for i, tv := range tvs {
		if tv.Dim() != c.d {
			panic(fmt.Sprintf("model: tie vector %d has dimension %d, classifier %d", i, tv.Dim(), c.d))
		}
	}
	c.tieVecs = tvs
	c.class.Store(nil)
}

// SetIndexConfig replaces the configuration of the prototype Set (see
// index.Config). With the defaults, Predict switches from the exact linear
// scan to sublinear indexed search once the class count reaches
// index.DefaultConfig().MinSize; set Disabled for exact-only prediction at
// any k, or Candidates >= k for an indexed-but-exact scan. Invalidates the
// finalized prototypes; call before concurrent reads start.
func (c *Classifier) SetIndexConfig(cfg index.Config) {
	c.ixCfg = cfg
	c.class.Store(nil)
}

// Add bundles one encoded training sample into its class accumulator and
// invalidates the finalized prototypes.
func (c *Classifier) Add(class int, hv *bitvec.Vector) {
	c.checkClass(class)
	c.accs[class].Add(hv)
	c.class.Store(nil)
}

// Sub removes one encoded sample's weight from a class accumulator — the
// inverse of Add, used by online refinement (move a misclassified sample
// out of the wrongly predicted class) and by serving-layer un-learning.
func (c *Classifier) Sub(class int, hv *bitvec.Vector) {
	c.checkClass(class)
	c.accs[class].Sub(hv)
	c.class.Store(nil)
}

// Finalize thresholds the accumulators into class-vectors. It must be
// called after training (and after any refinement) before Predict; Predict
// calls it implicitly when needed. Explicit calls always re-threshold
// (consuming fresh tie coins unless SetTieVectors made finalization
// deterministic).
func (c *Classifier) Finalize() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finalizeLocked()
}

// finalizeLocked thresholds under c.mu and publishes the prototypes as a
// Set under the classifier's index configuration.
func (c *Classifier) finalizeLocked() *index.Set {
	vs := make([]*bitvec.Vector, c.k)
	for i, acc := range c.accs {
		if c.tieVecs != nil {
			vs[i] = acc.ThresholdTieVector(c.tieVecs[i])
		} else {
			vs[i] = acc.Threshold(c.src)
		}
	}
	set := index.NewSet(vs, c.ixCfg, nil)
	c.class.Store(set)
	return set
}

// Prototypes returns the finalized class vectors, in class order, as the
// immutable Set Predict searches, finalizing at most once when the cache
// is empty. Safe for concurrent callers: the fast path is a single atomic
// load, and the slow path double-checks under the mutex so racing first
// readers agree on one finalization. The Set stays valid after later
// writes; they publish a new one.
func (c *Classifier) Prototypes() *index.Set {
	if p := c.class.Load(); p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.class.Load(); p != nil {
		return p
	}
	return c.finalizeLocked()
}

// ClassVector returns class i's prototype, finalizing if necessary. The
// returned vector is shared — do not mutate it.
func (c *Classifier) ClassVector(i int) *bitvec.Vector {
	c.checkClass(i)
	return c.Prototypes().Vectors()[i]
}

// Predict returns the class whose prototype is most similar to the query,
// and the corresponding normalized distance, searching the prototype Set:
// an exact scan below the index threshold, the sketch index past it (see
// SetIndexConfig). Ties resolve to the lowest class index.
func (c *Classifier) Predict(q *bitvec.Vector) (class int, distance float64) {
	idx, hd := c.Prototypes().Nearest(q)
	return idx, float64(hd) / float64(c.d)
}

// Scores returns the similarity of the query to every class prototype.
func (c *Classifier) Scores(q *bitvec.Vector) []float64 {
	hds := bitvec.DistanceMany(q, c.Prototypes().Vectors(), make([]int, c.k))
	out := make([]float64, c.k)
	for i, hd := range hds {
		out[i] = 1 - float64(hd)/float64(c.d)
	}
	return out
}

// Refine performs epochs of online retraining over the given training set:
// each misclassified sample is added to its true class accumulator and
// subtracted from the wrongly predicted one, and prototypes are
// re-thresholded after every epoch. It returns the number of updates per
// epoch, which reaching zero means the training set is fit. This is the
// standard perceptron-style HDC retraining extension; with epochs = 0 the
// model is the paper's single-pass centroid model.
func (c *Classifier) Refine(hvs []*bitvec.Vector, labels []int, epochs int) []int {
	if len(hvs) != len(labels) {
		panic(fmt.Sprintf("model: %d samples but %d labels", len(hvs), len(labels)))
	}
	updates := make([]int, 0, epochs)
	for e := 0; e < epochs; e++ {
		c.Finalize()
		n := 0
		for i, hv := range hvs {
			pred, _ := c.Predict(hv)
			if pred != labels[i] {
				c.accs[labels[i]].Add(hv)
				c.accs[pred].Sub(hv)
				n++
			}
		}
		updates = append(updates, n)
		c.class.Store(nil)
		if n == 0 {
			break
		}
	}
	c.Finalize()
	return updates
}

func (c *Classifier) checkClass(i int) {
	if i < 0 || i >= c.k {
		panic(fmt.Sprintf("model: class %d outside [0,%d)", i, c.k))
	}
}

// ---------------------------------------------------------------------------
// Regressor
// ---------------------------------------------------------------------------

// Regressor is the single-hypervector regression model
// M = ⊕_i φ(x_i) ⊗ φℓ(y_i).
type Regressor struct {
	d     int
	acc   *bitvec.Accumulator
	bound *bitvec.Vector // Add's binding scratch; Add, like acc, has one writer
	src   *rng.Stream    // tie coins for Finalize

	mu    sync.Mutex                    // serializes finalization
	model atomic.Pointer[bitvec.Vector] // thresholded; nil until finalize
}

// NewRegressor creates a regressor over dimension d; majority ties are
// broken randomly from a substream of seed.
func NewRegressor(d int, seed uint64) *Regressor {
	if d <= 0 {
		panic(fmt.Sprintf("model: dimension must be positive, got %d", d))
	}
	return &Regressor{
		d:     d,
		acc:   bitvec.NewAccumulator(d),
		bound: bitvec.New(d),
		src:   rng.Sub(seed, "regressor/ties"),
	}
}

// Dim returns the hypervector dimension.
func (r *Regressor) Dim() int { return r.d }

// Add memorizes one training pair: the binding of the encoded sample and
// the encoded label is bundled into the model. The binding goes through a
// scratch vector the regressor owns, so Add allocates nothing and keeps
// neither argument. Add is not safe for concurrent use.
func (r *Regressor) Add(sampleHV, labelHV *bitvec.Vector) {
	r.acc.Add(sampleHV.XorInto(labelHV, r.bound))
	r.model.Store(nil)
}

// N returns the number of memorized pairs.
func (r *Regressor) N() int { return r.acc.N() }

// Finalize thresholds the accumulator into the model hypervector.
func (r *Regressor) Finalize() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finalizeLocked()
}

func (r *Regressor) finalizeLocked() *bitvec.Vector {
	m := r.acc.Threshold(r.src)
	r.model.Store(m)
	return m
}

// Model returns the model hypervector, finalizing if needed. Safe for
// concurrent readers (shared — do not mutate the result).
func (r *Regressor) Model() *bitvec.Vector {
	if m := r.model.Load(); m != nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.model.Load(); m != nil {
		return m
	}
	return r.finalizeLocked()
}

// PredictVector returns the approximate label hypervector M ⊗ φ(x̂); the
// caller cleans it up against a label basis (e.g. ScalarEncoder.Decode).
func (r *Regressor) PredictVector(sampleHV *bitvec.Vector) *bitvec.Vector {
	return r.Model().Xor(sampleHV)
}

// Predict decodes the approximate label hypervector against the label
// encoder and returns the value. The unbinding M ⊗ φ(x̂) and the
// nearest-label search run as one fused kernel, the walk of the label
// set's transitions (ScalarEncoder.DecodeBound); once the model is
// finalized and the walk built, Predict allocates nothing.
func (r *Regressor) Predict(sampleHV *bitvec.Vector, labels *embed.ScalarEncoder) float64 {
	return labels.DecodeBound(r.Model(), sampleHV)
}
