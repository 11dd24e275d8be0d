package model

import (
	"fmt"

	"hdcirc/internal/batch"
	"hdcirc/internal/bitvec"
)

// Batched training and inference. Every method here is bit-identical to
// its sequential counterpart for any pool size: accumulation parallelizes
// across classes (integer counter additions commute, and each class is
// owned by exactly one worker), prediction parallelizes across samples
// (each sample writes only its own output slot), and refinement keeps the
// accumulator updates — the only order-sensitive-looking part — in a
// sequential section, exactly mirroring Refine's epoch structure and tie
// coin consumption.

// AddBatch bundles many encoded training samples into their class
// accumulators across the pool and invalidates the finalized prototypes.
// It panics when the slices disagree in length, any class is out of range,
// or any sample has the wrong dimension; all validation happens before any
// accumulator is touched, so on panic no sample has been accumulated.
func (c *Classifier) AddBatch(p *batch.Pool, classes []int, hvs []*bitvec.Vector) {
	if len(classes) != len(hvs) {
		panic(fmt.Sprintf("model: %d classes but %d samples", len(classes), len(hvs)))
	}
	byClass := make([][]int, c.k)
	for i, cl := range classes {
		c.checkClass(cl)
		if hvs[i].Dim() != c.d {
			panic(fmt.Sprintf("model: sample %d has dimension %d, classifier %d", i, hvs[i].Dim(), c.d))
		}
		byClass[cl] = append(byClass[cl], i)
	}
	p.ForEach(c.k, func(cl int) {
		acc := c.accs[cl]
		for _, i := range byClass[cl] {
			acc.Add(hvs[i])
		}
	})
	c.class.Store(nil)
}

// PredictBatch classifies every sample across the pool, returning the
// predicted classes and normalized distances in input order. The result is
// bit-identical to calling Predict sequentially.
func (c *Classifier) PredictBatch(p *batch.Pool, hvs []*bitvec.Vector) (classes []int, distances []float64) {
	c.Prototypes() // finalize once up front rather than racing in the workers
	classes = make([]int, len(hvs))
	distances = make([]float64, len(hvs))
	p.ForEach(len(hvs), func(i int) {
		classes[i], distances[i] = c.Predict(hvs[i])
	})
	return classes, distances
}

// RefineBatch is Refine with the per-epoch prediction pass fanned out
// across the pool. Within an epoch every sample is predicted against the
// epoch-start prototypes (exactly as Refine does — prototypes never change
// mid-epoch), so parallelizing the predictions and applying the
// accumulator updates in a sequential pass reproduces Refine's result and
// tie-coin stream bit for bit, for any worker count.
func (c *Classifier) RefineBatch(p *batch.Pool, hvs []*bitvec.Vector, labels []int, epochs int) []int {
	if len(hvs) != len(labels) {
		panic(fmt.Sprintf("model: %d samples but %d labels", len(hvs), len(labels)))
	}
	preds := make([]int, len(hvs))
	updates := make([]int, 0, epochs)
	for e := 0; e < epochs; e++ {
		c.Finalize()
		p.ForEach(len(hvs), func(i int) {
			preds[i], _ = c.Predict(hvs[i])
		})
		n := 0
		for i, hv := range hvs {
			if preds[i] != labels[i] {
				c.accs[labels[i]].Add(hv)
				c.accs[preds[i]].Sub(hv)
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
