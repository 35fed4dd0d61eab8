package transport

import "sync/atomic"

// LeaveToken leaves a wake token on the gate of r's port, as a completion
// that lands between its owner's announcement and re-check does: the owner
// sees its condition, returns, and the token stays for its next wait.
func LeaveToken(r *Recv) {
	g := &r.home.Gate
	if g.tok == nil {
		g.tok = make(chan struct{}, 1)
	}
	atomic.StoreUint32(&g.sleep, parked)
	g.Wake()
	atomic.StoreUint32(&g.sleep, awake)
}

// Drawn reports how many buffers of n bytes' class h has drawn from the
// shared pool. Owner goroutine only, or while the owner is idle.
func Drawn(h *Headers, n int) int {
	if h.bufs == nil {
		return 0
	}
	return h.bufs[classFor(n)].drawn
}
