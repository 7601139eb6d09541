package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile of xs (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// beyond is the number of samples above the nearest-rank p-quantile of n
// samples: a percentile is reported only with ten or more beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuTime is the process's user+sys CPU time so far, worker goroutines
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS lowers the process's peak resident set size to its current
// one (Linux 4.0+), so maxRSSMiB then reports the peak since this call.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// maxRSSMiB is the process's peak resident set size (Linux reports KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// histBuckets parses one histogram family's cumulative buckets out of a
// Prometheus text exposition: upper bound -> cumulative count, with +Inf
// as math.Inf(1).
func histBuckets(expo, family string) map[float64]float64 {
	out := map[float64]float64{}
	prefix := family + `_bucket{le="`
	sc := bufio.NewScanner(strings.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"}`)
		if end < 0 {
			continue
		}
		bound := math.Inf(1)
		if s := rest[:end]; s != "+Inf" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				continue
			}
			bound = v
		}
		n, err := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err != nil {
			continue
		}
		out[bound] = n
	}
	return out
}

// histQuantile estimates the q-quantile of the observations a histogram
// family received between two expositions, interpolating linearly inside
// the bucket that holds it (0 when nothing was observed).
func histQuantile(before, after, family string, q float64) float64 {
	b0, b1 := histBuckets(before, family), histBuckets(after, family)
	bounds := make([]float64, 0, len(b1))
	for k := range b1 {
		bounds = append(bounds, k)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := b1[bounds[len(bounds)-1]] - b0[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	rank := q * total
	lo, prev := 0.0, 0.0
	for _, ub := range bounds {
		c := b1[ub] - b0[ub]
		if c >= rank {
			if math.IsInf(ub, 1) {
				return lo
			}
			return lo + (ub-lo)*(rank-prev)/math.Max(c-prev, 1)
		}
		lo, prev = ub, c
	}
	return lo
}
