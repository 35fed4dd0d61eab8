package shmem

import "fmt"

// Team collectives in the OpenSHMEM style: broadcast and collect over an
// explicit PE list (the generalisation of the strided active sets of
// SHMEM's shmem_broadcast/shmem_fcollect). All listed PEs must call the
// routine with the same list; symmetric source and destination arrays are
// required, and the routines synchronise the team on completion. Every PE
// puts to the team in team order.

// Broadcast copies count elements of src (on root) into dst on every PE of
// the team, at offset 0. src and dst may alias on the root.
func Broadcast[T Elem](c *Ctx, team []int, root int, src, dst *Slice[T], count int) error {
	if err := validateTeam(c, team); err != nil {
		return fmt.Errorf("shmem: Broadcast: %w", err)
	}
	if !contains(team, root) {
		return fmt.Errorf("shmem: Broadcast: root PE %d not in team", root)
	}
	if count > src.Len() || count > dst.Len() {
		return fmt.Errorf("shmem: Broadcast: count %d exceeds buffers (%d/%d)", count, src.Len(), dst.Len())
	}
	if c.MyPE() == root {
		local := src.Local(c)[:count]
		for _, pe := range team {
			if pe == root {
				if src != dst {
					copy(dst.Local(c)[:count], local)
				}
				continue
			}
			if err := dst.Put(c, pe, local, 0); err != nil {
				return err
			}
		}
	}
	return c.TeamBarrier(team)
}

// Collect concatenates count elements of src from every team PE, in team
// order, into dst on every PE (an fcollect). dst must hold
// len(team)*count elements.
func Collect[T Elem](c *Ctx, team []int, src, dst *Slice[T], count int) error {
	if err := validateTeam(c, team); err != nil {
		return fmt.Errorf("shmem: Collect: %w", err)
	}
	if count > src.Len() {
		return fmt.Errorf("shmem: Collect: count %d exceeds source %d", count, src.Len())
	}
	if len(team)*count > dst.Len() {
		return fmt.Errorf("shmem: Collect: need %d elements in destination, have %d", len(team)*count, dst.Len())
	}
	idx := indexOf(team, c.MyPE())
	local := src.Local(c)[:count]
	for _, pe := range team {
		if pe == c.MyPE() {
			copy(dst.Local(c)[idx*count:(idx+1)*count], local)
			continue
		}
		if err := dst.Put(c, pe, local, idx*count); err != nil {
			return err
		}
	}
	return c.TeamBarrier(team)
}

// ReduceSum sums count elements of src element-wise across the team into
// dst on every PE (to_all with the sum operator). Uses a collect into a
// scratch symmetric array owned by the caller.
func ReduceSum[T Elem](c *Ctx, team []int, src, dst, scratch *Slice[T], count int) error {
	if len(team)*count > scratch.Len() {
		return fmt.Errorf("shmem: ReduceSum: scratch needs %d elements, has %d", len(team)*count, scratch.Len())
	}
	if count > dst.Len() {
		return fmt.Errorf("shmem: ReduceSum: count %d exceeds destination %d", count, dst.Len())
	}
	if err := Collect(c, team, src, scratch, count); err != nil {
		return err
	}
	all := scratch.Local(c)
	out := dst.Local(c)[:count]
	for i := range out {
		var sum T
		for k := range team {
			sum += all[k*count+i]
		}
		out[i] = sum
	}
	// Charge the local reduction arithmetic.
	c.rk.Compute(c.prof().MemcpyTime(len(team) * count * int(src.esz)))
	return c.TeamBarrier(team)
}

func validateTeam(c *Ctx, team []int) error {
	if len(team) == 0 {
		return fmt.Errorf("empty team")
	}
	if !contains(team, c.MyPE()) {
		return fmt.Errorf("caller PE %d not in team", c.MyPE())
	}
	for _, pe := range team {
		if pe < 0 || pe >= c.NPEs() {
			return fmt.Errorf("PE %d out of range", pe)
		}
	}
	return nil
}

func contains(team []int, pe int) bool {
	return indexOf(team, pe) >= 0
}

func indexOf(team []int, pe int) int {
	for i, p := range team {
		if p == pe {
			return i
		}
	}
	return -1
}
