package main

import (
	"bytes"
	"encoding/binary"
	"time"

	"commintent/internal/core"
	"commintent/internal/model"
	"commintent/internal/mpi"
	"commintent/internal/pragma"
	"commintent/internal/shmem"
	"commintent/internal/simnet"
	"commintent/internal/spmd"
	"commintent/internal/transport"
)

// haloCount is the edge length in float64 elements (256 B per edge).
const haloCount = 32

// Tags of the hand-written rungs. The raw-port tags sit far above anything
// the mpi layer derives from a communicator's tag base.
const (
	tagToRight, tagToLeft         = 21, 22
	portTagToRight, portTagToLeft = 1<<28 | 1, 1<<28 | 2
)

// haloText is the workload: the ring halo as the paper writes it. The two
// halo workloads differ in the target keyword alone. Buffers are named, not
// offset, so the same text also compiles to a plan.
func haloText(target string) string {
	return `#pragma comm_parameters target(` + target + `) max_comm_iter(2)
{
  #pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(edgeR) rbuf(haloL) count(32)
  #pragma comm_p2p sender((rank+1)%nprocs) receiver((rank-1+nprocs)%nprocs) sbuf(edgeL) rbuf(haloR) count(32)
}`
}

func haloWorkload(name, target, transportName string, procs int) *workload {
	text := haloText(target)
	oneSided := target == "TARGET_COMM_MPI_1SIDE"
	w := &workload{
		name: name, ranks: 256, transport: transportName, procs: procs,
		batch: 200, batches: 4,
		top: "pragma", halo: true,
		ladder: []string{"barrier", "port", "mpi", "core", "pragma", "plan"},
	}
	floor := "port"
	if oneSided {
		// The SHMEM retarget's landed-bytes check reads a buffer a
		// neighbour may already be putting into; that is only well defined
		// when ranks do not run in parallel.
		w.ladder = append(w.ladder, "core_shmem")
		floor = "barrier" // window puts bypass the port; the fence is a barrier
	}
	w.prepare = func(t *trial) (*shared, error) {
		sh := &shared{times: t.times}
		t0 := time.Now()
		b, err := pragma.ParseBlock(text)
		if err != nil {
			return nil, err
		}
		t.times["parse_us"] = micros(time.Since(t0))
		t0 = time.Now()
		pl, err := pragma.CompileBlock(b, nil)
		if err != nil {
			return nil, err
		}
		t.times["compile_us"] = micros(time.Since(t0))
		sh.block, sh.plan = b, pl
		return sh, nil
	}
	w.setup = func(rk *spmd.Rank, sh *shared, in *inputs, sync func() model.Time, want func(string) bool) (*program, error) {
		return haloSetup(rk, sh, in, sync, want, oneSided)
	}
	w.derive = func(l ladderStats, m metrics) {
		m["simnet.barrier_us_per_op"] = l["barrier"].us
		m["transport.us_per_op"] = l["port"].us
		m["transport.allocs_per_op"] = l["port"].allocs
		m["mpi.us_per_op"] = l["mpi"].us
		m["mpi.allocs_per_op"] = l["mpi"].allocs
		m["mpi.vtime_us_per_op"] = l["mpi"].vus
		m["mpi.added_us_per_op"] = l["mpi"].us - l[floor].us
		m["core.added_us_per_op"] = l["core"].us - l["mpi"].us
		m["core.overhead_x"] = ratio(l["core"].us, l["mpi"].us)
		m["core.allocs_added_per_op"] = l["core"].allocs - l["mpi"].allocs
		m["core.vtime_added_us"] = l["core"].vus - l["mpi"].vus
		if oneSided {
			m["core.retarget_shmem_us_per_op"] = l["core_shmem"].us
		}
		m["pragma.added_us_per_op"] = l["pragma"].us - l["core"].us
		m["pragma.allocs_added_per_op"] = l["pragma"].allocs - l["core"].allocs
		m["plan.added_us_per_op"] = l["plan"].us - l["core"].us
		m["plan.allocs_added_per_op"] = l["plan"].allocs - l["core"].allocs
		m["plan.vtime_added_us"] = l["plan"].vus - l["core"].vus
	}
	return w
}

func haloSetup(rk *spmd.Rank, sh *shared, in *inputs, sync func() model.Time, want func(string) bool, oneSided bool) (*program, error) {
	n, me := rk.N, rk.ID
	left, right := (me+n-1)%n, (me+1)%n
	comm := mpi.World(rk)
	shm := shmem.New(rk)

	// Symmetric halos, so the one text retargets to any of the three
	// targets by its keyword alone, as in the paper.
	haloL, err := shmem.Alloc[float64](shm, haloCount)
	if err != nil {
		return nil, err
	}
	haloR, err := shmem.Alloc[float64](shm, haloCount)
	if err != nil {
		return nil, err
	}
	hl, hr := haloL.Local(shm), haloR.Local(shm)
	edgeL := append([]float64(nil), in.payload...)
	edgeR := append([]float64(nil), in.payload...)

	const last = haloCount - 1
	fill := func(seq int) {
		s := in.stamp(me, seq)
		edgeL[0], edgeL[last], edgeR[0], edgeR[last] = s, s, s, s
	}
	// landed checks an arrived edge against the generated one, element by
	// element. A one-sided target lets a neighbour one op ahead overwrite
	// the edge before it is read (both the fence and the SHMEM flag
	// handshake bound the lead to one op), so slack accepts the next stamp
	// too; a stale or misrouted edge still fails.
	landed := func(edge []float64, from, seq int, slack bool) bool {
		for _, got := range [2]float64{edge[0], edge[last]} {
			if got != in.stamp(from, seq) && !(slack && got == in.stamp(from, seq+1)) {
				return false
			}
		}
		for i := 1; i < last; i++ {
			if edge[i] != in.payload[i] {
				return false
			}
		}
		return true
	}
	check := func(fromLeft, fromRight []float64, seq int, slack bool) error {
		if !landed(fromLeft, left, seq, slack) || !landed(fromRight, right, seq, slack) {
			return errMismatch
		}
		return nil
	}

	// Each directive rung lowers through a directive environment of its
	// own, so no rung runs on handle caches or a decision log another has
	// filled. Only the rungs the trial selected are built: set-up time is
	// the time to set up what runs.
	var envs []*core.Env
	newEnv := func() (*core.Env, error) {
		sync()
		t0 := time.Now()
		env, err := core.NewEnv(comm, shm)
		if err != nil {
			return nil, err
		}
		if me == 0 && len(envs) == 0 {
			sh.times["newenv_us"] = micros(time.Since(t0))
		}
		envs = append(envs, env)
		return env, nil
	}
	p := &program{close: func() error {
		for _, env := range envs {
			if err := env.Close(); err != nil {
				return err
			}
		}
		return nil
	}}
	add := func(name string, op func(seq int) error) {
		p.rungs = append(p.rungs, plainRung(name, op))
	}

	if want("barrier") {
		p.rungs = append(p.rungs, barrierRung(rk))
	}
	if want("port") {
		add("port", portExchange(rk, in, left, right))
	}

	// Hand-written mpi, passing its slices as an application would: the
	// conversion to the calls' interface parameters is part of the layer.
	if want("mpi") && oneSided {
		// [0:count) is filled by the left neighbour, [count:) by the right.
		winbuf := make([]float64, 2*haloCount)
		sync()
		t0 := time.Now()
		win, err := comm.WinCreate(winbuf)
		if err != nil {
			return nil, err
		}
		if me == 0 {
			sh.times["wincreate_us"] = micros(time.Since(t0))
		}
		add("mpi", func(seq int) error {
			fill(seq)
			if err := win.Put(edgeR, haloCount, mpi.Float64, right, 0); err != nil {
				return err
			}
			if err := win.Put(edgeL, haloCount, mpi.Float64, left, haloCount); err != nil {
				return err
			}
			win.Fence()
			return check(winbuf[:haloCount], winbuf[haloCount:], seq, true)
		})
	}
	if want("mpi") && !oneSided {
		reqs := make([]*mpi.Request, 4)
		add("mpi", func(seq int) (err error) {
			fill(seq)
			if reqs[0], err = comm.Irecv(hl, haloCount, mpi.Float64, left, tagToRight); err != nil {
				return err
			}
			if reqs[1], err = comm.Irecv(hr, haloCount, mpi.Float64, right, tagToLeft); err != nil {
				return err
			}
			if reqs[2], err = comm.Isend(edgeR, haloCount, mpi.Float64, right, tagToRight); err != nil {
				return err
			}
			if reqs[3], err = comm.Isend(edgeL, haloCount, mpi.Float64, left, tagToLeft); err != nil {
				return err
			}
			if _, err = comm.Waitall(reqs); err != nil {
				return err
			}
			return check(hl, hr, seq, false)
		})
	}

	// The core rung issues what the text lowers to, with the clause lists
	// built once: the directive layer without the front end.
	coreRung := func(name string, target core.Target, slack bool) error {
		if !want(name) {
			return nil
		}
		env, err := newEnv()
		if err != nil {
			return err
		}
		region := []core.Option{core.WithTarget(target), core.MaxCommIter(2)}
		toRight := []core.Option{
			core.Sender(left), core.Receiver(right),
			core.SBuf(edgeR), core.RBuf(haloL), core.Count(haloCount),
		}
		toLeft := []core.Option{
			core.Sender(right), core.Receiver(left),
			core.SBuf(edgeL), core.RBuf(haloR), core.Count(haloCount),
		}
		body := func(r *core.Region) error {
			if err := r.P2P(toRight...); err != nil {
				return err
			}
			return r.P2P(toLeft...)
		}
		add(name, func(seq int) error {
			fill(seq)
			if err := env.Parameters(body, region...); err != nil {
				return err
			}
			return check(hl, hr, seq, slack)
		})
		return nil
	}
	target := core.TargetMPI2Side
	if oneSided {
		target = core.TargetMPI1Side
	}
	if err := coreRung("core", target, oneSided); err != nil {
		return nil, err
	}

	penv := pragma.Env{
		Vars: map[string]int{"rank": me, "nprocs": n},
		Bufs: map[string]any{"edgeL": edgeL, "edgeR": edgeR, "haloL": haloL, "haloR": haloR},
	}
	if want("pragma") {
		env, err := newEnv()
		if err != nil {
			return nil, err
		}
		add("pragma", func(seq int) error {
			fill(seq)
			if err := sh.block.Exec(env, penv); err != nil {
				return err
			}
			return check(hl, hr, seq, oneSided)
		})
	}
	if want("plan") {
		env, err := newEnv()
		if err != nil {
			return nil, err
		}
		binding := pragma.BindingFromBufs(penv.Bufs)
		add("plan", func(seq int) error {
			fill(seq)
			if err := sh.plan.Execute(env, binding); err != nil {
				return err
			}
			return check(hl, hr, seq, oneSided)
		})
	}
	if err := coreRung("core_shmem", core.TargetSHMEM, true); err != nil {
		return nil, err
	}
	return p, nil
}

// portExchange is the ring halo written against transport.Port alone: the
// floor of every two-sided rung, and the transport's own number on the
// workloads whose traffic bypasses it.
func portExchange(rk *spmd.Rank, in *inputs, left, right int) func(seq int) error {
	const edgeBytes = 8 * haloCount
	port := rk.Port()
	payload := make([]byte, edgeBytes)
	for i, v := range in.payload {
		binary.LittleEndian.PutUint64(payload[8*i:], uint64(v))
	}
	fromLeft, fromRight := make([]byte, edgeBytes), make([]byte, edgeBytes)
	send := func(dst, tag int, stamp uint64, now model.Time) {
		b := simnet.GetBuf(edgeBytes)
		copy(b, payload)
		binary.LittleEndian.PutUint64(b, stamp)
		binary.LittleEndian.PutUint64(b[edgeBytes-8:], stamp)
		port.Send(dst, tag, b, now, false)
	}
	landed := func(h transport.RecvHandle, buf []byte, from, seq int) bool {
		h.Wait()
		ok := h.Fault() == simnet.FaultNone && h.Len() == edgeBytes
		h.Release()
		want := uint64(in.stamp(from, seq))
		return ok && binary.LittleEndian.Uint64(buf) == want &&
			binary.LittleEndian.Uint64(buf[edgeBytes-8:]) == want &&
			bytes.Equal(buf[8:edgeBytes-8], payload[8:edgeBytes-8])
	}
	return func(seq int) error {
		now := rk.Now()
		hL := port.PostRecv(left, portTagToRight, fromLeft, now)
		hR := port.PostRecv(right, portTagToLeft, fromRight, now)
		stamp := uint64(in.stamp(rk.ID, seq))
		send(right, portTagToRight, stamp, now)
		send(left, portTagToLeft, stamp, now)
		okL := landed(hL, fromLeft, left, seq)
		okR := landed(hR, fromRight, right, seq)
		if !okL || !okR {
			return errMismatch
		}
		return nil
	}
}
