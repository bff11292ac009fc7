package countnet

import (
	"fmt"
	"slices"

	"countnet/internal/runner"
)

// BatchSorter is a reusable, allocation-free batch sorter over one
// network. Not safe for concurrent use; create one per goroutine.
type BatchSorter struct {
	plan    *runner.Plan
	scratch *runner.Scratch
	asc     []int64
}

// NewBatchSorter prepares a BatchSorter for the network, sharing the
// network's cached evaluation plan.
func NewBatchSorter(n *Network) *BatchSorter {
	p := n.evalPlan()
	return &BatchSorter{plan: p, scratch: p.NewScratch(), asc: make([]int64, p.Width())}
}

// Sort sorts one batch of exactly Width values ascending. The returned
// slice is reused by the next call; copy it to keep it.
func (s *BatchSorter) Sort(in []int64) []int64 {
	s.plan.Apply(s.asc, in, s.scratch)
	slices.Reverse(s.asc)
	return s.asc
}

// SortBatches sorts every batch in place, ascending, using `workers`
// data-parallel goroutines (each with private scratch). Every batch
// must have exactly Width values.
func (n *Network) SortBatches(batches [][]int64, workers int) error {
	for i, b := range batches {
		if len(b) != n.Width() {
			return fmt.Errorf("countnet: batch %d has %d values for width-%d network", i, len(b), n.Width())
		}
	}
	n.evalPlan().SortBatches(batches, workers)
	for _, b := range batches {
		slices.Reverse(b)
	}
	return nil
}

// SortStream sorts every batch received from in and emits it ascending
// on the returned channel, in input order. Each batch must have exactly
// Width values. The returned channel closes after in closes and the
// last batch has been emitted.
//
// One goroutine runs the network's cached evaluation plan over each
// batch in place: every emitted slice is the slice that was sent on in,
// now holding the sorted values. A producer must not touch a batch
// between sending it and receiving it back.
//
// The output channel buffers 2*(Depth()+1)+2 batches, so a producer
// may send that many before it reads any output. Beyond that, a send
// blocks until the consumer reads.
func (n *Network) SortStream(in <-chan []int64) <-chan []int64 {
	plan := n.evalPlan()
	// Sized to the documented in-flight allowance: producers that send
	// several batches before reading any output rely on it.
	out := make(chan []int64, 2*(plan.NumLayers()+1)+2)
	go func() {
		defer close(out)
		s := plan.NewScratch()
		for b := range in {
			plan.Apply(b, b, s)
			slices.Reverse(b)
			out <- b
		}
	}()
	return out
}
