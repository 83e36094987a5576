package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hulcBatches is the HulC batch count: with B = 6 batches, [min, max] of
// the per-batch medians covers the true median with probability at least
// 1 − 2^(1−6) ≈ 96.9% (Kuchibhotla, Balakrishnan & Wasserman).
const hulcBatches = 6

// hulc returns the HulC interval for the median of xs: xs is cut, in
// order, into hulcBatches contiguous batches and the interval spans the
// batch medians. ok is false with fewer samples than batches.
func hulc(xs []float64) (lo, hi float64, ok bool) {
	if len(xs) < hulcBatches {
		return 0, 0, false
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for b := 0; b < hulcBatches; b++ {
		m := median(xs[b*len(xs)/hulcBatches : (b+1)*len(xs)/hulcBatches])
		lo, hi = min(lo, m), max(hi, m)
	}
	return lo, hi, true
}

// geomean is the geometric mean of the positive entries of xs (NaN when
// there are none).
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// cpuTicks is the machine-wide CPU time split of /proc/stat's "cpu" line.
type cpuTicks struct{ total, steal uint64 }

// readCPUTicks reads the machine-wide CPU counters; ok is false where
// /proc/stat is unavailable.
func readCPUTicks() (t cpuTicks, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so only the first eight add.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealFrac is the share of machine CPU time the hypervisor stole between
// two readings (0 when either reading is missing).
func stealFrac(a, b cpuTicks, ok bool) float64 {
	if !ok || b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
