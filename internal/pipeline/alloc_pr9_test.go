package pipeline

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// Zero-alloc lock-ins for the PR9 workload families. Each family's steady
// state is one full program pass (every block executed once) through a
// persistent pooled session; after the warm pass fills the kernel, plan,
// and free-list caches, a pass must allocate nothing.

// measurePassAllocs measures heap allocations per steady-state program
// pass, where body executes the family's full block program on one rank.
func measurePassAllocs(t *testing.T, sess *Session, body func(r *Rank) error) float64 {
	t.Helper()
	var allocs float64
	err := sess.Run(func(r *Rank) error {
		exec := func() {
			if err := body(r); err != nil {
				panic(err)
			}
		}
		if r.ID() == 0 {
			for i := 0; i < allocWarm; i++ {
				exec()
			}
			allocs = testing.AllocsPerRun(allocRuns, exec)
			return nil
		}
		for i := 0; i < allocWarm+allocRuns+1; i++ {
			exec()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestSteadyWaveZeroAllocsSW: the affine-gap fill is one rank-2 scan block
// writing three arrays; a pooled steady-state pass must allocate nothing.
func TestSteadyWaveZeroAllocsSW(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 2, 4} {
		w, err := workload.NewSW(32, 7, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		blk := w.Block()
		sess, err := NewSession(w.Env, []*scan.Block{blk}, SessionConfig{
			Procs: procs, Domain: w.All, Block: 8, Pool: bufpool.New(procs)})
		if err != nil {
			t.Fatal(err)
		}
		allocs := measurePassAllocs(t, sess, func(r *Rank) error { return r.Exec(blk) })
		if allocs != 0 {
			t.Errorf("procs=%d: SW steady-state pass allocated %.0f times, want 0", procs, allocs)
		}
	}
}

// TestSteadyWaveZeroAllocsFactor: the full elimination program — 5(n-1)
// blocks over shrinking regions, including empty portions on low ranks —
// must also reach zero once every block's plan and kernel are warm. The
// matrix values decay across repeated passes (no Reset inside the
// measured loop), which is irrelevant to the allocation count.
func TestSteadyWaveZeroAllocsFactor(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 2, 4} {
		w, err := workload.NewLU(16, 3, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		blocks := w.Blocks()
		sess, err := NewSession(w.Env, blocks, SessionConfig{
			Procs: procs, Domain: w.All, Block: 4, Pool: bufpool.New(procs)})
		if err != nil {
			t.Fatal(err)
		}
		allocs := measurePassAllocs(t, sess, func(r *Rank) error {
			for _, b := range blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
			return nil
		})
		if allocs != 0 {
			t.Errorf("procs=%d: LU steady-state pass allocated %.0f times, want 0", procs, allocs)
		}
	}
}

// TestSteadyWaveZeroAllocsMultiOctant: per-block execution of the octants
// plus the combine reaches zero like any other block program.
//
// This family cannot use AllocsPerRun: that helper pins GOMAXPROCS(1) for
// the measured window, which lets the counter-propagating pipelines drift
// far apart (each octant has a different head rank, so under single-core
// bursts a leading rank streams waves into a lagging peer's link queue and
// occasionally grows its ring — a topology-lifetime cost this measurement
// would misread as per-wave). Instead every rank runs each pass in
// lockstep between barriers, and a heap-profile probe (heapProbe) counts
// the allocations of the allocRuns measured passes as one window:
//
//   - The window is fenced on both sides. Every rank reaches a barrier
//     before rank 0 opens the window, and again after rank 0 closes it, so
//     no rank's steady-state work leaks out of the window and no rank's
//     teardown (the post-body gather and the topology join) leaks in.
//   - Only this repo's allocations count: a sample counts when its stack
//     holds a wavefront/ frame outside the probe itself and it was not made
//     by one of the runtime's own bookkeeping allocators (heapProbe's
//     runtimeBookkeeping: the sudog cache refilled when a rank parks in
//     sync.Cond.Wait on a multi-core host, the type-assertion cache filled
//     once in the deadlock watchdog). Allocations the runtime makes on
//     behalf of repo code — new objects, makeslice, growslice, map growth —
//     carry the repo frame and count. Background runtime work (unique-map
//     cleanup after each GC) carries no repo frame and does not.
//   - The bar is the one every AllocsPerRun lock-in applies (see allocRuns
//     in alloc_test.go): the per-pass mean is floored, so a genuine
//     per-wave allocation on any rank adds at least allocRuns to the window
//     and reads >= 1, while bounded one-off allocations below one per pass
//     do not fail the test.
//
// An exact per-pass zero cannot be the bar on a multi-core host: there a
// lockstep pass now and then drives a link deeper than the warm passes
// did, and the new high-water mark of messages in flight grows the link
// queue (comm Topology.enqueue's append), misses the pool once
// (bufpool.Pool.Get), and grows a free list (bufpool.Pool.Put's append).
// Those are real repo allocations, but bounded over the topology's
// lifetime rather than paid per wave. TestMultiOctantAllocProbeDetects
// checks that the probe and bar still catch a per-pass allocation.
//
// The grouped path (Rank.ExecGroup) does NOT share the zero guarantee: it
// re-validates group independence on every call (CheckGroupIndependent
// builds its read/write name sets on the heap), which is the price of
// refusing to merge an unsound group. TestExecGroupAllocFloor below locks
// that documented floor in so an accidental per-tile allocation cannot
// hide inside it.
func TestSteadyWaveZeroAllocsMultiOctant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	probe := newHeapProbe(t)
	for _, procs := range []int{1, 2, 4} {
		n, sites := multiOctantWindowAllocs(t, probe, procs, nil)
		t.Logf("procs=%d: %d repo allocations over %d lockstep passes", procs, n, allocRuns)
		if perPass := n / allocRuns; perPass != 0 {
			t.Errorf("procs=%d: steady-state passes allocated %d times per pass (%d over %d passes), want 0; sites:\n%s",
				procs, perPass, n, allocRuns, strings.Join(sites, "\n"))
		}
	}
}

// probeSink makes the allocation TestMultiOctantAllocProbeDetects injects
// escape to the heap.
var probeSink *[8]float64

// TestMultiOctantAllocProbeDetects is the non-vacuity check for the
// multi-octant probe, the role TestSteadyWaveAllocBaseline plays for the
// AllocsPerRun lock-ins: one heap allocation per measured pass on the
// highest rank (a rank other than 0 whenever procs > 1) must read >= 1
// under the same probe and floored-mean bar.
func TestMultiOctantAllocProbeDetects(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	probe := newHeapProbe(t)
	for _, procs := range []int{1, 2, 4} {
		inject := func(r *Rank) {
			if r.ID() == procs-1 {
				probeSink = new([8]float64)
			}
		}
		n, _ := multiOctantWindowAllocs(t, probe, procs, inject)
		t.Logf("procs=%d: %d repo allocations over %d lockstep passes with one injected per pass", procs, n, allocRuns)
		if perPass := n / allocRuns; perPass < 1 {
			t.Errorf("procs=%d: injected per-pass allocation read %d per pass (%d over %d passes), want >= 1",
				procs, perPass, n, allocRuns)
		}
	}
}

// multiOctantWindowAllocs runs allocWarm warm passes and allocRuns measured
// passes of the multi-octant block program in barrier lockstep on procs
// ranks, and returns the repo allocations the probe attributes to the
// fenced measured window, with their sites. A non-nil inject runs on every
// rank after each measured pass's blocks.
func multiOctantWindowAllocs(t *testing.T, probe *heapProbe, procs int, inject func(r *Rank)) (int64, []string) {
	t.Helper()
	w, err := workload.NewMultiOctant(24, 2, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blocks := w.Blocks()
	sess, err := NewSession(w.Env, blocks, SessionConfig{
		Procs: procs, Domain: w.All, Block: 6, Pool: bufpool.New(procs)})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	var sites []string
	// The snapshot closures are built before the run so that making them
	// falls outside the window.
	openWindow := probe.open
	closeWindow := func() { n, sites = probe.close() }
	// fence parks every rank at a barrier, lets rank 0 take a snapshot
	// while the others wait at a second barrier, then releases them all.
	fence := func(r *Rank, snap func()) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID() == 0 {
			snap()
		}
		return r.Barrier()
	}
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < allocWarm+allocRuns; i++ {
			if i == allocWarm {
				if err := fence(r, openWindow); err != nil {
					return err
				}
			} else if err := r.Barrier(); err != nil {
				return err
			}
			for _, b := range blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
			if inject != nil && i >= allocWarm {
				inject(r)
			}
		}
		return fence(r, closeWindow)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, sites
}

// heapProbe counts the heap allocations this repo's code makes between
// open and close, from the runtime's heap profile sampled at every
// allocation (MemProfileRate = 1 for the test's lifetime). Unlike the
// process-wide MemStats.Mallocs counter, it attributes each allocation to
// its stack, so allocations the Go runtime makes for itself are left out.
type heapProbe struct {
	base map[[32]uintptr]int64
}

// runtimeBookkeeping lists the runtime functions whose allocations are
// the runtime's own caches, not work the repo asked for, even when a repo
// frame sits below them on the stack. acquireSudog refills a P's empty
// sudog cache when a goroutine parks (the central cache is dropped at every
// GC, and the refill only happens with GOMAXPROCS > 1); typeAssert fills
// its per-call-site cache once.
var runtimeBookkeeping = map[string]bool{
	"runtime.acquireSudog": true,
	"runtime.typeAssert":   true,
}

// heapProbeFrames prefixes the probe's own functions, whose allocations
// (profile records, the snapshot map) fall inside the window they measure.
const heapProbeFrames = "wavefront/internal/pipeline.(*heapProbe)."

func newHeapProbe(t *testing.T) *heapProbe {
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	t.Cleanup(func() { runtime.MemProfileRate = rate })
	return &heapProbe{}
}

// snapshot returns the cumulative allocation count per stack. Profile
// data lags allocation by up to two GC cycles, so two forced cycles first
// publish every allocation made before the call.
func (p *heapProbe) snapshot() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	counts := make(map[[32]uintptr]int64, n)
	for _, rec := range recs[:n] {
		counts[rec.Stack0] += rec.AllocObjects
	}
	return counts
}

func (p *heapProbe) open() { p.base = p.snapshot() }

// close returns the number of repo allocations since open and one line
// per allocating stack naming the count and the frames.
func (p *heapProbe) close() (int64, []string) {
	var total int64
	var sites []string
	for stk, count := range p.snapshot() {
		d := count - p.base[stk]
		if d <= 0 {
			continue
		}
		if frames, ok := repoStack(stk); ok {
			total += d
			sites = append(sites, fmt.Sprintf("%d × %s", d, strings.Join(frames, " < ")))
		}
	}
	sort.Strings(sites)
	return total, sites
}

// repoStack symbolizes a profile stack and reports whether it is one of
// this repo's allocations: a wavefront/ frame outside the probe, and no
// runtime bookkeeping allocator.
func repoStack(stk [32]uintptr) ([]string, bool) {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	repo := false
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		switch {
		case runtimeBookkeeping[f.Function], strings.HasPrefix(f.Function, heapProbeFrames):
			return nil, false
		case strings.HasPrefix(f.Function, "wavefront/"):
			repo = true
		}
		names = append(names, f.Function)
		if !more {
			return names, repo
		}
	}
}

// TestExecGroupAllocFloor documents and bounds the grouped path's per-call
// allocation floor: the independence validation allocates a handful of
// map/set nodes per ExecGroup call (a per-CALL cost proportional to the
// statement count, never to the tile or point count). If this bound ever
// breaks, either validation grew a per-tile allocation — a real regression
// — or it got cached, in which case tighten the bound to zero.
func TestExecGroupAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	w, err := workload.NewMultiOctant(24, 2, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	oct, comb := w.OctantBlocks(), w.CombineBlock()
	sess, err := NewSession(w.Env, w.Blocks(), SessionConfig{
		Procs: 1, Domain: w.All, Block: 6, Pool: bufpool.New(1),
		Scheduler: scan.SchedTaskDAG, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	allocs := measurePassAllocs(t, sess, func(r *Rank) error {
		if err := r.ExecGroup(oct); err != nil {
			return err
		}
		return r.Exec(comb)
	})
	const floor = 64
	if allocs > floor {
		t.Errorf("grouped pass allocated %.0f times per call, want <= %d (validation-only floor)", allocs, floor)
	}
	t.Logf("grouped multi-octant pass: %.0f allocs per call (validation floor, bounded at %d)", allocs, floor)
}
