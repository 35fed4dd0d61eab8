package plan_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"commintent/internal/core"
	"commintent/internal/plan"
	"commintent/internal/shmem"
	"commintent/internal/spmd"
)

// TestExecuteReplaysAcrossBindings: one plan executed again and again on one
// environment follows its binding — other buffers, other lengths, an
// aliased binding that must be rejected every time and must not poison the
// executions after it — and leaves the same lowering decisions and the same
// virtual time as lowering the plan afresh for every execution.
func TestExecuteReplaysAcrossBindings(t *testing.T) {
	const n, rounds = 4, 30
	pl := plan.Ring(core.TargetDefault)
	type outcome struct {
		v         int64
		decisions []core.Decision
	}
	sequence := func(drop bool) []outcome {
		out := make([]outcome, n)
		run(t, n, func(rk *spmd.Rank, env *core.Env, shm *shmem.Ctx) error {
			outs := [][]int64{make([]int64, 4), make([]int64, 4), make([]int64, 2)}
			ins := [][]int64{make([]int64, 4), make([]int64, 3)}
			prev := (rk.ID - 1 + n) % n
			for round := 0; round < rounds; round++ {
				src, dst := outs[round%3], ins[round/2%2]
				for i := range src {
					src[i] = int64(rk.ID*1000 + round*10 + i)
				}
				if drop {
					plan.DropBound(env, pl)
				}
				if round%7 == 3 {
					err := pl.Execute(env, plan.Binding{"out": src, "in": src})
					if !errors.Is(err, plan.ErrAliasedBinding) {
						return fmt.Errorf("round %d: aliased binding: %v", round, err)
					}
				}
				if err := pl.Execute(env, plan.Binding{"out": src, "in": dst}); err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
				for i := 0; i < min(len(src), len(dst)); i++ {
					if want := int64(prev*1000 + round*10 + i); dst[i] != want {
						return fmt.Errorf("round %d: in[%d] = %d, want %d", round, i, dst[i], want)
					}
				}
			}
			out[rk.ID] = outcome{int64(rk.Now()), env.Decisions()}
			return nil
		})
		return out
	}
	bound, fresh := sequence(false), sequence(true)
	for rank := range bound {
		if bound[rank].v != fresh[rank].v {
			t.Errorf("rank %d: virtual time %d bound, %d fresh", rank, bound[rank].v, fresh[rank].v)
		}
		if !reflect.DeepEqual(bound[rank].decisions, fresh[rank].decisions) {
			t.Errorf("rank %d: decisions differ\nbound: %v\nfresh: %v", rank, bound[rank].decisions, fresh[rank].decisions)
		}
	}
}
