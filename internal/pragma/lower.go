package pragma

import (
	"fmt"
	"reflect"

	"commintent/internal/core"
	"commintent/internal/shmem"
)

// Env is the evaluation context for a directive: per-rank variables
// (rank, nprocs, loop variables, ...) and the buffers the clause names
// refer to.
type Env struct {
	Vars map[string]int
	Bufs map[string]any
}

// Options lowers the parsed spec to directive-layer clause options,
// evaluating every clause expression against the environment. It is the one
// lowering path: the Exec methods call it when a directive first executes
// on a core.Env, and again whenever a variable it read or a buffer it named
// has changed since (see bind.go).
func (s *Spec) Options(env Env) ([]core.Option, error) {
	var opts []core.Option
	if s.Sender != nil {
		v, err := s.Sender.Eval(env.Vars)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.Sender(v))
	}
	if s.Receiver != nil {
		v, err := s.Receiver.Eval(env.Vars)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.Receiver(v))
	}
	if s.SendWhen != nil {
		b, err := EvalBool(s.SendWhen, env.Vars)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.SendWhen(b))
	}
	if s.RecvWhen != nil {
		b, err := EvalBool(s.RecvWhen, env.Vars)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.ReceiveWhen(b))
	}
	if s.Count != nil {
		v, err := s.Count.Eval(env.Vars)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.Count(v))
	}
	if len(s.SBuf) > 0 {
		bufs, err := resolveBufs(s.SBuf, env)
		if err != nil {
			return nil, fmt.Errorf("sbuf: %w", err)
		}
		opts = append(opts, core.SBuf(bufs...))
	}
	if len(s.RBuf) > 0 {
		bufs, err := resolveBufs(s.RBuf, env)
		if err != nil {
			return nil, fmt.Errorf("rbuf: %w", err)
		}
		opts = append(opts, core.RBuf(bufs...))
	}
	if s.Target != "" {
		t, err := targetKeyword(s.Target)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithTarget(t))
	}
	if s.MaxCommIter != nil {
		v, err := s.MaxCommIter.Eval(env.Vars)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.MaxCommIter(v))
	}
	if s.PlaceSync != "" {
		p, err := placeSyncKeyword(s.PlaceSync)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.PlaceSync(p))
	}
	return opts, nil
}

func resolveBufs(refs []BufRef, env Env) ([]any, error) {
	out := make([]any, len(refs))
	for i, r := range refs {
		buf, ok := env.Bufs[r.Name]
		if !ok {
			return nil, fmt.Errorf("unknown buffer %q", r.Name)
		}
		if r.Offset == nil {
			out[i] = buf
			continue
		}
		off, err := r.Offset.Eval(env.Vars)
		if err != nil {
			return nil, err
		}
		if off < 0 {
			return nil, fmt.Errorf("buffer %q offset %d", r.Name, off)
		}
		if sym, ok := buf.(shmem.AnySlice); ok {
			out[i] = core.At(sym, off)
			continue
		}
		rv := reflect.ValueOf(buf)
		if rv.Kind() != reflect.Slice {
			return nil, fmt.Errorf("buffer %q (%T) cannot take an offset", r.Name, buf)
		}
		if off > rv.Len() {
			return nil, fmt.Errorf("buffer %q offset %d out of %d", r.Name, off, rv.Len())
		}
		out[i] = rv.Slice(off, rv.Len()).Interface()
	}
	return out, nil
}

func targetKeyword(kw string) (core.Target, error) {
	switch kw {
	case "TARGET_COMM_MPI_2SIDE":
		return core.TargetMPI2Side, nil
	case "TARGET_COMM_MPI_1SIDE":
		return core.TargetMPI1Side, nil
	case "TARGET_COMM_SHMEM":
		return core.TargetSHMEM, nil
	case "TARGET_COMM_AUTO": // extension
		return core.TargetAuto, nil
	default:
		return 0, fmt.Errorf("pragma: unknown target keyword %q", kw)
	}
}

func placeSyncKeyword(kw string) (core.SyncPlacement, error) {
	switch kw {
	case "END_PARAM_REGION":
		return core.EndParamRegion, nil
	case "BEGIN_NEXT_PARAM_REGION":
		return core.BeginNextParamRegion, nil
	case "END_ADJ_PARAM_REGIONS":
		return core.EndAdjParamRegions, nil
	default:
		return 0, fmt.Errorf("pragma: unknown place_sync keyword %q", kw)
	}
}

// ExecP2P parses (if needed) and executes a standalone comm_p2p directive
// on the environment.
func ExecP2P(cenv *core.Env, line string, env Env) error {
	s, err := Parse(line)
	if err != nil {
		return err
	}
	return s.Exec(cenv, env)
}

// Exec executes a parsed comm_p2p spec standalone.
func (s *Spec) Exec(cenv *core.Env, env Env) error {
	if s.Params {
		return fmt.Errorf("pragma: Exec on a comm_parameters directive; use Region")
	}
	dir, err := s.lower(cenv, env)
	if err != nil {
		return err
	}
	return cenv.P2PBound(dir, nil)
}

// ExecIn executes a parsed comm_p2p spec inside an open region, with an
// optional overlapped body.
func (s *Spec) ExecIn(r *core.Region, env Env, body func() error) error {
	if s.Params {
		return fmt.Errorf("pragma: ExecIn on a comm_parameters directive")
	}
	dir, err := s.lower(r.Env(), env)
	if err != nil {
		return err
	}
	return r.P2PBound(dir, body)
}

// Region opens the comm_parameters region described by a parsed spec and
// runs body inside it.
func (s *Spec) Region(cenv *core.Env, env Env, body func(*core.Region) error) error {
	if !s.Params {
		return fmt.Errorf("pragma: Region on a comm_p2p directive; use Exec")
	}
	dir, err := s.lower(cenv, env)
	if err != nil {
		return err
	}
	return cenv.ParametersBound(dir, body)
}
