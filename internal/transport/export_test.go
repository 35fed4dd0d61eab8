package transport

import "sync/atomic"

// LeaveToken leaves a wake token on the gate of r's port, as a completion
// that lands between its owner's announcement and re-check does: the owner
// sees its condition, returns, and the token stays for its next wait.
func LeaveToken(r *Recv) {
	g := &r.home.Gate
	atomic.StoreUint32(&g.sleep, 1)
	g.Wake()
	atomic.StoreUint32(&g.sleep, 0)
}

// Drawn reports how many buffers of n bytes' class h has drawn from the
// shared pool. Owner goroutine only, or while the owner is idle.
func Drawn(h *Headers, n int) int {
	if h.bufs == nil {
		return 0
	}
	return h.bufs[classFor(n)].drawn
}
