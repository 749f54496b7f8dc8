package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark treats it as measured rather than as a single outlier.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values for
// an even count; NaN when xs is empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trimCut is the share of windows trimmedMean drops at each end.
const trimCut = 0.1

// trimmedMean is the mean of xs after dropping the lowest and the highest
// trimCut of its values; NaN when xs is empty. The benchmark summarises a
// run's per-window medians with it: a median across windows jumps between
// the host's fast and slow levels once half the run is slow, where the
// trimmed mean moves in proportion to how much of the run was slow, and
// a few stalled windows fall in the trimmed ends.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(trimCut * float64(len(s)))
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (its default "exclusive" method), so the spreads printed here match the
// ones a reader computes from the same values. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := median(xs)
		return v, v, v
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs and the
// number of samples beyond it. Failed operations enter xs as +Inf, so they
// count as missing every latency limit. The value is supported only when
// beyond >= minBeyond.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1], n - rank
}

// ratio is num/den, or 0 when den is 0 (an idle layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
