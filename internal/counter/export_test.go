package counter

// Test-only accessors. UnsafeDisableDrainForTest removes the drain
// step from hooked switches so the exploration tests can prove the
// sched harness catches the resulting lost/duplicated values — the
// refutation that gives the gap-free transition tests their teeth.
func (c *AdaptiveCounter) UnsafeDisableDrainForTest() { c.unsafeNoDrain = true }

// ChooseEngineForTest exposes the governor's banding decision.
func ChooseEngineForTest(cur EngineKind, load float64, pol *AdaptivePolicy) EngineKind {
	return chooseEngine(cur, load, pol)
}

// TicketOrderedAwaitHooked is the refuted barrier construction that
// TestTicketGenerationRefuted explores: the generation comes from the
// ticket value, and the generation's highest ticket releases it. It
// draws from b's NetworkCounter and takes b's lock with the same
// yields as AwaitHooked, so the exploration runs the same instrumented
// traversal as the shipped barrier.
func (b *Barrier) TicketOrderedAwaitHooked(wire int, yield func(op string), block func(op string, ready func() bool)) int64 {
	t := b.ctr.(*NetworkCounter).NextOnHooked(wire, yield)
	gen := t / b.n
	boundary := (gen + 1) * b.n
	step(yield, "barrier gate")
	b.mu.Lock()
	if t == boundary-1 {
		b.done = max(b.done, boundary)
		b.mu.Unlock()
		return gen
	}
	b.mu.Unlock()
	block("barrier wait", func() bool {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.done >= boundary
	})
	return gen
}
