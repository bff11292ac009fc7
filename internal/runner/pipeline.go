package runner

import (
	"fmt"
	"sync"
	"sync/atomic"

	"countnet/internal/network"
)

func insertionSortDesc(t []int64) {
	for i := 1; i < len(t); i++ {
		v := t[i]
		j := i - 1
		for j >= 0 && t[j] < v {
			t[j+1] = t[j]
			j--
		}
		t[j+1] = v
	}
}

// insertionSortDescFunc sorts t descending by less, stably: among
// elements neither of which is less than the other, input order is
// kept. Gate widths are bounded by MaxGateWidth, where insertion sort
// beats the allocation and indirection of the sort package.
func insertionSortDescFunc[T any](t []T, less func(a, b T) bool) {
	for i := 1; i < len(t); i++ {
		v := t[i]
		j := i - 1
		for j >= 0 && less(t[j], v) {
			t[j+1] = t[j]
			j--
		}
		t[j+1] = v
	}
}

// Pipeline executes a stream of batches through the network with one
// goroutine per layer, each sorting its gates by gathering the gate's
// values and insertion-sorting them: batch k can be in layer 3 while
// batch k+1 is in layer 2. It is a layer-pipeline reference engine
// with no production caller — the public SortStream runs the compiled
// Plan instead — and stays only because the perfbench ladder's
// runner.pipeline_ns rung builds it.
type Pipeline struct {
	net    *network.Network
	stages []chan []int64
	out    chan []int64
	wg     sync.WaitGroup
}

// NewPipeline starts the layer goroutines. Close the pipeline with
// Close after the last Submit; results arrive on Results in submission
// order.
func NewPipeline(net *network.Network, buffer int) *Pipeline {
	layers := net.Layers()
	p := &Pipeline{net: net}
	p.stages = make([]chan []int64, len(layers)+1)
	for i := range p.stages {
		p.stages[i] = make(chan []int64, buffer)
	}
	p.out = p.stages[len(layers)]
	for li, ids := range layers {
		li, ids := li, ids
		p.wg.Add(1)
		// Production-only stage goroutine; the sched harness explores the
		// pipeline through the hooked token paths, not these workers.
		//netvet:allow spawn
		go func() {
			defer p.wg.Done()
			defer close(p.stages[li+1])
			buf := make([]int64, net.MaxGateWidth())
			for vals := range p.stages[li] {
				for _, id := range ids {
					g := &net.Gates[id]
					t := buf[:g.Width()]
					for i, wire := range g.Wires {
						t[i] = vals[wire]
					}
					insertionSortDesc(t)
					for i, wire := range g.Wires {
						vals[wire] = t[i]
					}
				}
				p.stages[li+1] <- vals
			}
		}()
	}
	return p
}

// Submit feeds one batch (length Width) into the pipeline. The slice is
// owned by the pipeline until it reappears on Results (rearranged to
// output order). Submit blocks when the pipeline is full.
func (p *Pipeline) Submit(batch []int64) {
	if len(batch) != p.net.Width() {
		panic(fmt.Sprintf("runner: %d inputs for width-%d network", len(batch), p.net.Width()))
	}
	p.stages[0] <- batch
}

// Results returns the channel of completed batches, in submission
// order. Batches stay in wire order (zero-copy); when the network's
// OutputOrder is not the identity, index batch[OutputOrder[k]] for the
// k-th ranked value.
func (p *Pipeline) Results() <-chan []int64 { return p.out }

// Close signals the end of input; Results closes after the last batch
// drains.
func (p *Pipeline) Close() {
	close(p.stages[0])
}

// Wait blocks until all stages exit (call after Close and draining
// Results).
func (p *Pipeline) Wait() { p.wg.Wait() }

// OutputOrder exposes the network's output ordering so consumers can
// interpret Results batches (which stay in wire order for zero-copy).
func (p *Pipeline) OutputOrder() []int { return p.net.OutputOrder }

// SortBatches sorts every batch through the plan using `workers`
// data-parallel goroutines, each worker with private scratch. Batches
// are replaced in place with their sorted contents in network output
// order (descending). It complements Pipeline: data parallelism across
// batches rather than pipeline parallelism across layers.
func (plan *Plan) SortBatches(batches [][]int64, workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(batches) {
		workers = len(batches)
	}
	if workers == 0 {
		return
	}
	if workers == 1 {
		plan.ApplyBatches(batches, 0)
		return
	}
	// Hand out contiguous blocks so each worker streams its share
	// through the cache-blocked path.
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		// Production-only worker pool (see NewParallel); not a replayed path.
		//netvet:allow spawn
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)-1) * DefaultBatchBlock
				if k >= len(batches) {
					return
				}
				hi := k + DefaultBatchBlock
				if hi > len(batches) {
					hi = len(batches)
				}
				plan.ApplyBatches(batches[k:hi], 0)
			}
		}()
	}
	wg.Wait()
}
