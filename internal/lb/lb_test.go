package lb

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ringsched/internal/instance"
)

func TestWindowLBExactness(t *testing.T) {
	// windowLB(k,S) must be the minimal integer L with L^2+(k-1)L >= S.
	for k := 1; k <= 6; k++ {
		for S := int64(0); S <= 200; S++ {
			L := windowLB(k, S)
			if L*L+int64(k-1)*L < S {
				t.Fatalf("k=%d S=%d: L=%d does not satisfy the capacity inequality", k, S, L)
			}
			if L > 0 {
				lp := L - 1
				if lp*lp+int64(k-1)*lp >= S {
					t.Fatalf("k=%d S=%d: L=%d is not minimal", k, S, L)
				}
			}
		}
	}
}

func TestWindowLBLargeValues(t *testing.T) {
	// Exercise the float fix-up path with values near the paper's largest
	// cases (10^8 total work) and beyond.
	for _, S := range []int64{1e6, 1e8, 1e12, 1e15} {
		for _, k := range []int{1, 2, 1000} {
			L := windowLB(k, S)
			if L*L+int64(k-1)*L < S {
				t.Errorf("k=%d S=%d: bound %d infeasible", k, S, L)
			}
			lp := L - 1
			if lp >= 0 && lp*lp+int64(k-1)*lp >= S {
				t.Errorf("k=%d S=%d: bound %d not tight", k, S, L)
			}
		}
	}
}

func TestWindowBoundSinglePile(t *testing.T) {
	// One pile of W jobs: best window is k=1, L = ceil(sqrt(W)).
	works := make([]int64, 100)
	works[17] = 100
	if got := WindowBound(works); got != 10 {
		t.Errorf("WindowBound(single pile of 100) = %d, want 10", got)
	}
	works[17] = 101
	if got := WindowBound(works); got != 11 {
		t.Errorf("WindowBound(single pile of 101) = %d, want 11", got)
	}
}

func TestWindowBoundAtAgainstWindowBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	works := make([]int64, 23)
	for i := range works {
		works[i] = int64(rng.Intn(40))
	}
	var best int64
	for i := 0; i < len(works); i++ {
		for k := 1; k <= len(works); k++ {
			if b := WindowBoundAt(works, i, k); b > best {
				best = b
			}
		}
	}
	if got := WindowBound(works); got != best {
		t.Errorf("WindowBound = %d, exhaustive max = %d", got, best)
	}
}

func TestWindowBoundWrapsAroundRing(t *testing.T) {
	// Heavy load split across the index-0 boundary; the certifying window
	// wraps.
	works := []int64{50, 0, 0, 0, 0, 0, 0, 50}
	wrapped := WindowBoundAt(works, 7, 2) // processors 7,0 hold 100
	if wrapped != windowLB(2, 100) {
		t.Fatalf("wrapped window bound = %d", wrapped)
	}
	if got := WindowBound(works); got < wrapped {
		t.Errorf("WindowBound = %d ignores wrapping window bound %d", got, wrapped)
	}
}

func TestWindowBoundPanicsOnBadWindow(t *testing.T) {
	works := []int64{1, 2, 3}
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WindowBoundAt k=%d did not panic", k)
				}
			}()
			WindowBoundAt(works, 0, k)
		}()
	}
}

func TestAverageBound(t *testing.T) {
	in := instance.NewUnit([]int64{5, 0, 0})
	if got := AverageBound(in); got != 2 {
		t.Errorf("AverageBound = %d, want 2", got)
	}
	if got := AverageBound(instance.Empty(3)); got != 0 {
		t.Errorf("AverageBound(empty) = %d, want 0", got)
	}
}

func TestPMaxBound(t *testing.T) {
	in := instance.NewSized([][]int64{{3, 9}, {2}})
	if got := PMaxBound(in); got != 9 {
		t.Errorf("PMaxBound = %d, want 9", got)
	}
}

func TestBestDominatesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		m := 2 + rng.Intn(10)
		works := make([]int64, m)
		for i := range works {
			works[i] = int64(rng.Intn(100))
		}
		in := instance.NewUnit(works)
		b := Best(in)
		return b >= WindowBound(works) && b >= AverageBound(in) && b >= PMaxBound(in)
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBestOnBigSinglePileBeatsAverage(t *testing.T) {
	// 100 jobs on one processor of a huge ring: average bound is 1 but the
	// window bound knows distance matters.
	works := make([]int64, 1000)
	works[0] = 100
	in := instance.NewUnit(works)
	if got := Best(in); got != 10 {
		t.Errorf("Best = %d, want 10", got)
	}
}

func TestCapWindowBound(t *testing.T) {
	// Two adjacent processors with 40 jobs: (2+2)L >= 40 -> L >= 10.
	works := []int64{20, 20, 0, 0, 0, 0}
	if got := CapWindowBoundAt(works, 0, 2); got != 10 {
		t.Errorf("CapWindowBoundAt = %d, want 10", got)
	}
	if got := CapWindowBound(works); got < 10 {
		t.Errorf("CapWindowBound = %d, want >= 10", got)
	}
}

func TestCapWindowBoundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CapWindowBoundAt([]int64{1}, 0, 2)
}

func TestCapacitatedDominatesUncapacitated(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		m := 2 + rng.Intn(12)
		works := make([]int64, m)
		for i := range works {
			works[i] = int64(rng.Intn(60))
		}
		in := instance.NewUnit(works)
		if Capacitated(in) < Best(in) {
			t.Fatalf("capacitated bound weaker than uncapacitated on %v", works)
		}
	}
}

func TestCapacitatedSinglePile(t *testing.T) {
	// One pile of x jobs, unit links: window k=1 gives ceil(x/3) (process 1,
	// ship 1 each way per step), much stronger than sqrt(x).
	works := make([]int64, 50)
	works[10] = 99
	in := instance.NewUnit(works)
	if got := Capacitated(in); got != 33 {
		t.Errorf("Capacitated = %d, want 33", got)
	}
}

func TestMaxWindowWork(t *testing.T) {
	// M_1 = L^2, M_k - M_{k-1} = L (Lemma 2 structure).
	for _, L := range []int64{1, 7, 100} {
		if MaxWindowWork(1, L) != L*L {
			t.Errorf("M_1(L=%d) = %d", L, MaxWindowWork(1, L))
		}
		for k := 2; k < 6; k++ {
			if MaxWindowWork(k, L)-MaxWindowWork(k-1, L) != L {
				t.Errorf("M_k increment wrong at k=%d L=%d", k, L)
			}
		}
	}
}

func TestMaxWindowWorkConsistentWithWindowLB(t *testing.T) {
	// An instance packing exactly M_k work into k processors certifies a
	// lower bound of exactly L (not more).
	for _, L := range []int64{3, 10, 25} {
		for k := 1; k <= 5; k++ {
			S := MaxWindowWork(k, L)
			if got := windowLB(k, S); got != L {
				t.Errorf("windowLB(k=%d, M_k(L=%d)=%d) = %d, want %d", k, L, S, got, L)
			}
		}
	}
}

// windowBoundOracle and capWindowBoundOracle are the paper's O(m^2)
// scans — every start, every length, wrapping — kept as the reference
// the bisection kernels must match exactly.
func windowBoundOracle(works []int64) int64 {
	return scanWindows(works, windowLB)
}

func capWindowBoundOracle(works []int64) int64 {
	return scanWindows(works, func(k int, S int64) int64 { return (S + int64(k+1)) / int64(k+2) })
}

func scanWindows(works []int64, bound func(k int, S int64) int64) int64 {
	m := len(works)
	var best int64
	for i := 0; i < m; i++ {
		var S int64
		for k := 1; k <= m; k++ {
			S += works[(i+k-1)%m]
			best = max(best, bound(k, S))
		}
	}
	return best
}

// oracleVectors is the seeded corpus: dense loads, sparse piles, all-zero
// rings, m = 1, and piles straddling the index-0 boundary so the best
// window wraps.
func oracleVectors() [][]int64 {
	rng := rand.New(rand.NewSource(1994))
	out := [][]int64{nil, {0}, {7}, {1 << 40}, make([]int64, 9)}
	for trial := 0; trial < 600; trial++ {
		m := 1 + rng.Intn(90)
		works := make([]int64, m)
		scale := []int64{2, 40, 1000, 1e6}[trial%4]
		for i := range works {
			switch trial % 3 {
			case 0: // dense
				works[i] = rng.Int63n(scale)
			case 1: // sparse piles
				if rng.Intn(8) == 0 {
					works[i] = rng.Int63n(scale * 10)
				}
			}
		}
		if trial%3 == 2 { // wrapping piles
			works[0], works[m-1] = rng.Int63n(scale*10), rng.Int63n(scale*10)
		}
		out = append(out, works)
	}
	return out
}

func TestWindowBoundsMatchOracles(t *testing.T) {
	for _, works := range oracleVectors() {
		if got, want := WindowBound(works), windowBoundOracle(works); got != want {
			t.Fatalf("WindowBound(%v) = %d, oracle %d", works, got, want)
		}
		if got, want := CapWindowBound(works), capWindowBoundOracle(works); got != want {
			t.Fatalf("CapWindowBound(%v) = %d, oracle %d", works, got, want)
		}
		wb := windowBoundOracle(works)
		for _, L := range []int64{wb - 2, wb - 1, wb, wb + 1} {
			if got := WindowBoundExceeds(works, L); got != (wb > L) {
				t.Fatalf("WindowBoundExceeds(%v, %d) = %v with bound %d", works, L, got, wb)
			}
		}
		if len(works) == 0 {
			continue
		}
		in := instance.NewUnit(works)
		if got, want := Best(in), max(wb, AverageBound(in), PMaxBound(in)); got != want {
			t.Fatalf("Best(%v) = %d, want %d", works, got, want)
		}
		if got, want := Capacitated(in), max(Best(in), capWindowBoundOracle(works)); got != want {
			t.Fatalf("Capacitated(%v) = %d, want %d", works, got, want)
		}
	}
}

// TestWindowBoundsHugeValues puts two adjacent piles of 2^48 on a ring
// of 2^17, wrapping and not, where m times the probed L is far beyond an
// int64. Only windows holding both piles or one of them can be best, so
// the bounds must equal the oracle's on a 3-ring with the same piles.
// WindowBoundExceeds must also answer probes far above the bound.
func TestWindowBoundsHugeValues(t *testing.T) {
	const m, a, b = 1 << 17, 1 << 48, 1<<48 + 12345
	small := []int64{a, b, 0}
	for _, at := range []int{0, 777, m - 1} {
		works := make([]int64, m)
		works[at], works[(at+1)%m] = a, b
		if got, want := WindowBound(works), windowBoundOracle(small); got != want {
			t.Fatalf("piles at %d: WindowBound %d, oracle %d", at, got, want)
		}
		if got, want := CapWindowBound(works), capWindowBoundOracle(small); got != want {
			t.Fatalf("piles at %d: CapWindowBound %d, oracle %d", at, got, want)
		}
		wb := windowBoundOracle(small)
		for _, L := range []int64{wb - 1, wb, 3_037_000_499, 3_037_000_500, 1 << 40, math.MaxInt64} {
			if got := WindowBoundExceeds(works, L); got != (wb > L) {
				t.Fatalf("piles at %d: WindowBoundExceeds(%d) = %v with bound %d", at, L, got, wb)
			}
		}
	}
	if WindowBoundExceeds([]int64{2, 0, 0}, 3_500_000_000) {
		t.Fatal("WindowBoundExceeds overflows on a probe far above the bound")
	}
	if pile := []int64{1 << 62}; !WindowBoundExceeds(pile, 1<<31-1) || WindowBoundExceeds(pile, 1<<31) {
		t.Fatal("WindowBoundExceeds misjudges a pile of 2^62 against its bound 2^31")
	}
}

func TestWindowBoundSparseIsCertifiedAndClose(t *testing.T) {
	// BestSparse, the bound big rings used to get from a geometric
	// window scan, must stay certified by a real window (never above the
	// exact scan's components), dominate the k=1 window, and match the
	// exact scan on a single pile.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(130)
		works := make([]int64, m)
		for i := range works {
			if rng.Intn(2) == 0 {
				works[i] = int64(rng.Intn(500))
			}
		}
		in := instance.NewUnit(works)
		exact := max(windowBoundOracle(works), AverageBound(in), PMaxBound(in))
		sparse := BestSparse(in)
		if sparse > exact {
			t.Fatalf("m=%d: sparse %d > exact %d (uncertified bound)", m, sparse, exact)
		}
		if sparse < exact {
			t.Fatalf("m=%d: sparse %d weaker than exact %d", m, sparse, exact)
		}
		if single := windowLB(1, in.PMax()); sparse < single {
			t.Fatalf("m=%d: sparse %d below the k=1 window %d", m, sparse, single)
		}
	}
	pile := make([]int64, 64)
	pile[17] = 10_000
	single := instance.NewUnit(pile)
	if s, e := BestSparse(single), max(windowBoundOracle(pile), AverageBound(single)); s != e {
		t.Fatalf("single pile: sparse %d != exact %d", s, e)
	}
}

func TestBestSparseDominatesComponents(t *testing.T) {
	in := instance.NewUnit([]int64{0, 900, 0, 0, 3, 0, 0, 0})
	b := BestSparse(in)
	if b < AverageBound(in) || b < PMaxBound(in) || b < WindowBound(in.Works()) {
		t.Fatalf("BestSparse %d below a component", b)
	}
	if b != Best(in) {
		t.Fatalf("BestSparse %d differs from Best %d", b, Best(in))
	}
}

func FuzzWindowBound(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 250, 9})
	f.Add([]byte{255})
	f.Add(append([]byte{1, 255, 254, 3}, make([]byte, 196)...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 200 {
			data = data[:200]
		}
		// With an odd first byte only the first four processors get
		// work, up to 2^58 each: m times the probed L can leave int64,
		// while the total work stays below 2^61.
		big := len(data) > 0 && data[0]%2 == 1
		works := make([]int64, len(data))
		for i, b := range data {
			switch {
			case !big:
				works[i] = int64(b) * int64(b)
			case i < 4:
				works[i] = int64(b) << 50
			}
		}
		if got, want := WindowBound(works), windowBoundOracle(works); got != want {
			t.Fatalf("WindowBound(%v) = %d, oracle %d", works, got, want)
		}
		if got, want := CapWindowBound(works), capWindowBoundOracle(works); got != want {
			t.Fatalf("CapWindowBound(%v) = %d, oracle %d", works, got, want)
		}
	})
}

func TestWindowBoundsAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	works := make([]int64, 4096)
	for i := range works {
		works[i] = rng.Int63n(100)
	}
	for name, f := range map[string]func([]int64) int64{"WindowBound": WindowBound, "CapWindowBound": CapWindowBound} {
		if allocs := testing.AllocsPerRun(20, func() { f(works) }); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call", name, allocs)
		}
	}
}
