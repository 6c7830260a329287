// Package lb computes lower bounds on the optimal schedule length.
//
// The central bound is Lemma 1 of the paper: if k adjacent processors
// start with S total work, any schedule (even a centralized one) has length
// at least sqrt((k-1)^2/4 + S) - (k-1)/2, because in L steps the k interior
// processors do at most kL work and processors at distance j outside the
// window can absorb at most L-j units each, for an extra L(L-1). We use the
// integer-exact form: the smallest L with L^2 + (k-1)L >= S.
//
// Additional bounds: ceil(n/m) (total work over total capacity), p_max for
// arbitrary job sizes (§4.2), and the capacitated window bound of Lemma 10
// (no k consecutive processors may start with more than (k+2)L jobs when
// links carry one job per step).
//
// Both window bounds are maximized over all m^2 windows without visiting
// them: a bound exceeds L iff some window has S - kL > T(L), T(L) = L^2-L
// (Lemma 1) or 2L (Lemma 10). With prefix sums P (run past m for wrapping
// windows, P(m+t) = P(m) + P(t)) and q(t) = P(t) - tL, the window of k
// starting at i has S - kL = q(i+k) - q(i), so a running prefix minimum
// and a running suffix minimum decide it exactly in O(m). The test is
// monotone in L, so bisecting a bracket certified by explicit windows
// returns the exact maximum in O(m log L) time with no allocation.
package lb

import (
	"math"

	"ringsched/internal/instance"
)

// windowLB returns the smallest integer L >= 0 with L^2 + (k-1)L >= S,
// i.e. the Lemma 1 bound for a window of k processors holding S work.
func windowLB(k int, S int64) int64 {
	if S <= 0 {
		return 0
	}
	b := float64(k - 1)
	// Solve L^2 + bL - S = 0 and round down, then fix up any floating error.
	L := max(0, int64(math.Floor((-b+math.Sqrt(b*b+4*float64(S)))/2)))
	for L*L+int64(k-1)*L >= S && L > 0 {
		L--
	}
	for L*L+int64(k-1)*L < S {
		L++
	}
	return L
}

// lemma1Slack and lemma10Slack are the package doc's T(L).
func lemma1Slack(L int64) int64  { return L*L - L }
func lemma10Slack(L int64) int64 { return 2 * L }

// exceeds reports whether some window of works — any start, any length
// 1..m, wrapping — holds S > kL + slack, for L >= 0 and slack >= 0. With
// n the total work, only windows of k <= K = n/L processors can (kL < S
// <= n), and wrapping prefixes and suffixes longer than K are skipped
// unless mL < 2n, so every sum stays within [-4n, 2n]: no L overflows.
func exceeds(works []int64, L, slack int64) bool {
	// Windows (i, j] with 0 <= i < j <= m: q(j) - min q(i < j), kept as
	// the best S - kL over windows ending at j.
	var n, cur int64
	for _, w := range works {
		n += w
		cur = max(cur, 0) + w - L
		if cur > slack {
			return true
		}
	}
	m, K := len(works), len(works)
	if L > 0 && n/L < int64(m) {
		K = int(n / L)
	}
	// Wrapping windows (i, m+t] with 1 <= t <= i < m: S - kL is the
	// suffix q(m) - q(i) plus the prefix q(t). When 2K <= m, every
	// prefix and suffix of at most K fit side by side.
	pre, suf := int64(0), int64(0)
	bestPre, bestSuf := int64(math.MinInt64), int64(math.MinInt64)
	if 2*K <= m {
		for t := range K {
			pre += works[t] - L
			suf += works[m-1-t] - L
			bestPre, bestSuf = max(bestPre, pre), max(bestSuf, suf)
		}
		return K > 0 && bestPre+bestSuf > slack
	}
	// Otherwise mL < 2n: take the best suffix with i >= t.
	p := n
	for t := m - 1; t >= 1; t-- {
		p -= works[t]
		suf += works[t] - L
		bestSuf = max(bestSuf, suf)
		if p-int64(t)*L+bestSuf > slack {
			return true
		}
	}
	return false
}

// maxWindow bisects for the smallest L in [lo, hi] that no window
// exceeds, given that the window bound lies in that bracket.
func maxWindow(works []int64, lo, hi int64, slack func(int64) int64) int64 {
	for lo < hi {
		if mid := lo + (hi-lo)/2; exceeds(works, mid, slack(mid)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// totals returns the total work and the largest entry of works.
func totals(works []int64) (n, pmax int64) {
	for _, w := range works {
		n += w
		pmax = max(pmax, w)
	}
	return n, pmax
}

// WindowBoundAt returns the Lemma 1 bound certified by the window of k
// processors starting at index i (wrapping around the ring). works is the
// per-processor work vector x_0..x_{m-1}.
func WindowBoundAt(works []int64, i, k int) int64 {
	return windowLB(k, windowSum(works, i, k))
}

// windowSum returns the work on the k processors starting at i.
func windowSum(works []int64, i, k int) int64 {
	m := len(works)
	if k < 1 || k > m {
		panic("lb: window length out of range")
	}
	var S int64
	for h := 0; h < k; h++ {
		S += works[(i+h)%m]
	}
	return S
}

// WindowBound returns the largest Lemma 1 bound over all windows, wrapping
// or not, in O(m log L) (see the package doc). The heaviest processor and
// the whole ring bracket it below, all work on one processor above.
func WindowBound(works []int64) int64 {
	n, pmax := totals(works)
	lo := max(windowLB(1, pmax), windowLB(len(works), n))
	return maxWindow(works, lo, windowLB(1, n), lemma1Slack)
}

// WindowBoundExceeds reports whether WindowBound(works) > L with a single
// O(m) probe, for callers that only need to know whether the bound beats
// a value they already hold. No Lemma 1 bound on int64 work reaches
// ceil(sqrt(MaxInt64)), so larger L are answered without probing, before
// L^2 - L could overflow.
func WindowBoundExceeds(works []int64, L int64) bool {
	return L < 0 || L < 3_037_000_500 && exceeds(works, L, lemma1Slack(L))
}

// Deprecated: BestSparse is Best, which is now exact and cheap at any m.
func BestSparse(in instance.Instance) int64 { return Best(in) }

// AverageBound returns ceil(n/m): m processors can complete at most m units
// of work per step.
func AverageBound(in instance.Instance) int64 {
	return ceilDiv(in.TotalWork(), int64(in.M))
}

// PMaxBound returns the largest single job size; no schedule can beat the
// longest job since jobs run without preemption on one processor.
func PMaxBound(in instance.Instance) int64 { return in.PMax() }

// Best returns the strongest lower bound we can certify for the
// uncapacitated model: max of the Lemma 1 window bound, ceil(n/m), and
// p_max.
func Best(in instance.Instance) int64 {
	return max(WindowBound(in.Works()), AverageBound(in), PMaxBound(in))
}

// CapWindowBoundAt returns the Lemma 10 bound for the window of k
// processors starting at i: the smallest L with (k+2)L >= S, as the window
// sheds at most 2L jobs over its two unit-capacity boundary links.
func CapWindowBoundAt(works []int64, i, k int) int64 {
	return ceilDiv(windowSum(works, i, k), int64(k+2))
}

// CapWindowBound maximizes the Lemma 10 bound over all windows with the
// same kernel as WindowBound. The bracket is certified by the heaviest
// processor and the whole ring below; above, no window beats ceil(n/3)
// (its best case, k = 1) or p_max (k processors hold at most k*p_max).
func CapWindowBound(works []int64) int64 {
	n, pmax := totals(works)
	lo := max(ceilDiv(pmax, 3), ceilDiv(n, int64(len(works)+2)))
	return maxWindow(works, lo, min(ceilDiv(n, 3), pmax), lemma10Slack)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// Capacitated returns the strongest lower bound for the unit-capacity-link
// model: every uncapacitated bound still applies (capacitated schedules are
// a subset), plus the Lemma 10 window bound.
func Capacitated(in instance.Instance) int64 {
	return max(Best(in), CapWindowBound(in.Works()))
}

// MaxWindowWork returns M_k = L^2 + (k-1)L, the most work k adjacent
// processors can hold at time 0 in any instance whose optimum is L
// (Lemma 2). The §3 adversary and its tests build instances from this.
func MaxWindowWork(k int, L int64) int64 {
	return L*L + int64(k-1)*L
}
