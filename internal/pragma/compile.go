package pragma

import (
	"fmt"
	"maps"

	"commintent/internal/plan"
)

// CompileBlock lowers a parsed directive block to a static pattern and
// compiles it with the plan package's analyses — the full pipeline of the
// paper's system: source text -> parsed clauses -> static analysis ->
// reusable plan. Buffer names become the pattern's slots; clause
// expressions are evaluated per rank against vars supplemented with "rank"
// and "nprocs" at execution. Vars are compile-time constants: the plan keeps
// its own copy, so writing the caller's map afterwards changes nothing.
//
// Restriction: a static pattern binds one buffer per slot, so block
// buffers with per-instance offsets (&buf[p]) cannot be compiled — bind
// views per execution with the dynamic Block.Exec instead.
func CompileBlock(b *Block, vars map[string]int) (*plan.Plan, error) {
	vars = maps.Clone(vars)
	toExpr := func(e Expr) plan.Expr {
		if e == nil {
			return nil
		}
		return func(rank, size int) int {
			v, err := evalWith(e, vars, rank, size)
			if err != nil {
				panic(err) // surfaced by Execute's caller as a rank panic
			}
			return v
		}
	}
	toCond := func(e Expr) plan.Cond {
		if e == nil {
			return nil
		}
		return func(rank, size int) bool {
			v, err := evalWith(e, vars, rank, size)
			if err != nil {
				panic(err)
			}
			return v != 0
		}
	}

	p := plan.Pattern{Name: "pragma-block"}
	if b.Params != nil {
		p.Sender = toExpr(b.Params.Sender)
		p.Receiver = toExpr(b.Params.Receiver)
		p.SendWhen = toCond(b.Params.SendWhen)
		p.RecvWhen = toCond(b.Params.RecvWhen)
		if b.Params.Target != "" {
			t, err := targetKeyword(b.Params.Target)
			if err != nil {
				return nil, err
			}
			p.Target = t
		}
		if b.Params.PlaceSync != "" {
			ps, err := placeSyncKeyword(b.Params.PlaceSync)
			if err != nil {
				return nil, err
			}
			p.PlaceSync = ps
		}
		if b.Params.MaxCommIter != nil {
			v, err := b.Params.MaxCommIter.Eval(vars)
			if err != nil {
				return nil, fmt.Errorf("pragma: max_comm_iter: %w", err)
			}
			p.MaxCommIter = v
		}
	}
	for i, s := range b.P2P {
		st := plan.Step{
			Name:     fmt.Sprintf("p2p-%d", i),
			Sender:   toExpr(s.Sender),
			Receiver: toExpr(s.Receiver),
			SendWhen: toCond(s.SendWhen),
			RecvWhen: toCond(s.RecvWhen),
		}
		if s.Count != nil {
			v, err := s.Count.Eval(vars)
			if err != nil {
				return nil, fmt.Errorf("pragma: step %d count: %w", i, err)
			}
			st.Count = v
		}
		for _, r := range s.SBuf {
			if r.Offset != nil {
				return nil, fmt.Errorf("pragma: step %d: offset buffer %s cannot be compiled statically", i, r)
			}
			st.SBuf = append(st.SBuf, plan.Slot(r.Name))
		}
		for _, r := range s.RBuf {
			if r.Offset != nil {
				return nil, fmt.Errorf("pragma: step %d: offset buffer %s cannot be compiled statically", i, r)
			}
			st.RBuf = append(st.RBuf, plan.Slot(r.Name))
		}
		p.Steps = append(p.Steps, st)
	}
	return plan.Compile(p)
}

// evalWith evaluates e against vars under the executing rank's identity.
func evalWith(e Expr, vars map[string]int, rank, size int) (int, error) {
	return e.eval(scope{vars: vars, rank: rank, size: size, ranked: true})
}

// BindingFromBufs adapts a buffer map to a plan binding over the block's
// slot names.
func BindingFromBufs(bufs map[string]any) plan.Binding {
	out := make(plan.Binding, len(bufs))
	for k, v := range bufs {
		out[plan.Slot(k)] = v
	}
	return out
}
