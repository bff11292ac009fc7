package runner

import (
	"testing"

	"countnet/internal/network"
)

// maskDiffNets builds traversal subjects mixing power-of-two gate
// widths (mask fast path) with non-pow2 widths (DIV path), including
// multi-layer routes.
func maskDiffNets(t testing.TB) []*network.Network {
	t.Helper()
	var nets []*network.Network

	b := network.NewBuilder(8)
	b.Add([]int{0, 1, 2, 3}, "a")
	b.Add([]int{4, 5, 6, 7}, "b")
	b.Add([]int{0, 4}, "c")
	b.Add([]int{1, 5}, "d")
	b.Add([]int{2, 6}, "e")
	b.Add([]int{3, 7}, "f")
	b.Add([]int{0, 1, 2, 3, 4, 5, 6, 7}, "g")
	nets = append(nets, b.Build("pow2", nil))

	b = network.NewBuilder(6)
	b.Add([]int{0, 1, 2}, "a") // width 3: DIV path
	b.Add([]int{3, 4, 5}, "b")
	b.Add([]int{0, 3}, "c") // width 2: mask path
	b.Add([]int{1, 2, 4, 5}, "d")
	b.Add([]int{0, 1, 2, 3, 4}, "e") // width 5: DIV path
	nets = append(nets, b.Build("mixed", []int{5, 4, 3, 2, 1, 0}))

	return nets
}

// TestTraverseMaskVsModulo pins the pow2 mask fast path against plain
// modulo routing: the same serial token sequence through an Async with
// masks force-disabled (every gate takes the DIV path) must exit on
// identical positions, for the plain loop (obs-off Traverse) and for
// every lane of the instrumented loop — obs-on Traverse, TraverseHooked
// and TraverseMutex, each hooked and lock lane with obs off and on.
func TestTraverseMaskVsModulo(t *testing.T) {
	for _, net := range maskDiffNets(t) {
		t.Run(net.Name, func(t *testing.T) {
			fast := Compile(net)
			slow := Compile(net)
			masked := 0
			for i := range slow.gates {
				if slow.gates[i].mask >= 0 {
					masked++
				}
				slow.gates[i].mask = -1 // force the modulo path
			}
			if masked == 0 {
				t.Fatal("subject has no pow2 gates; differential is vacuous")
			}
			observed := func() *Async {
				a := Compile(net)
				a.EnableObs("maskdiff")
				return a
			}
			yield := func(string) {}
			lanes := []struct {
				name string
				a    *Async
				run  func(a *Async, wire int) int
			}{
				{"mask path", fast, (*Async).Traverse},
				{"observed path", observed(), (*Async).Traverse},
				{"hooked path", Compile(net), func(a *Async, w int) int { return a.TraverseHooked(w, yield) }},
				{"observed hooked path", observed(), func(a *Async, w int) int { return a.TraverseHooked(w, yield) }},
				{"mutex path", Compile(net), (*Async).TraverseMutex},
				{"observed mutex path", observed(), (*Async).TraverseMutex},
			}
			const tokens = 500
			for k := 0; k < tokens; k++ {
				wire := k % net.Width()
				want := slow.Traverse(wire)
				for _, l := range lanes {
					if got := l.run(l.a, wire); got != want {
						t.Fatalf("token %d wire %d: %s exits %d, modulo path %d", k, wire, l.name, got, want)
					}
				}
			}
		})
	}
}
