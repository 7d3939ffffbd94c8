package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"gofmm/internal/telemetry"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// quantile interpolates linearly between order statistics (the common
// "type 7" definition): q=0 is the minimum, q=1 the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (its default "exclusive" method),
// which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLevels are the levels, in tenths of a percent, a tail may be
// reported at, highest first.
var tailLevels = []int{990, 980, 950, 900, 750}

// tailLevel is the highest percentile with at least ten of n samples beyond
// it. Below twenty samples no percentile above the median qualifies, and the
// tail is reported at the median.
func tailLevel(n int) float64 {
	for _, l := range tailLevels {
		if n*(1000-l) >= 10*1000 {
			return float64(l) / 1000
		}
	}
	return 0.5
}

// latency summarizes per-operation times in seconds as milliseconds.
type latency struct {
	p50, tail float64 // ms
	q         float64 // the tail's percentile
	n         int
}

func summarize(secs []float64) latency {
	q := tailLevel(len(secs))
	return latency{p50: median(secs) * 1e3, tail: quantile(secs, q) * 1e3, q: q, n: len(secs)}
}

// tally counts operations attempted and those that failed or produced a
// wrong answer; the first few failures are kept for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// relDiff is ‖a − b‖₂ / ‖b‖₂ over two equal-length vectors.
func relDiff(a, b []float64) float64 {
	var num, den float64
	for i := range b {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// readRecords loads every run record (one JSON object a line) in path.
func readRecords(path string) ([]telemetry.RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []telemetry.RunRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := telemetry.ValidateRunRecord([]byte(line)); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		var rr telemetry.RunRecord
		if err := json.Unmarshal([]byte(line), &rr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return out, nil
}

// samples groups record metrics by record name, then metric name, keeping
// the order runs were recorded in (compare pairs runs by that order).
func samples(recs []telemetry.RunRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, rr := range recs {
		g := out[rr.Name]
		if g == nil {
			g = map[string][]float64{}
			out[rr.Name] = g
		}
		for k, v := range rr.Metrics {
			g[k] = append(g[k], v)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// better reports whether a reads better than b for metric m.
func (m metric) better(a, b float64) bool {
	if m.higherBetter {
		return a > b
	}
	return a < b
}

// verdict judges the change runs against the base runs of one metric:
//
//   - "unresolved": either side's interquartile spread exceeds the bound,
//     unless every change run reads better than every base run;
//   - "worse": the change's median is worse than the base's by more than
//     the bound;
//   - "better": the change wins at least nine tenths of the run pairs (ties
//     count for neither side) and the medians differ by more than the
//     base's interquartile distance;
//   - "same" otherwise. Metrics without a bound are only ever "better" or
//     "-".
func verdict(m metric, base, change []float64) string {
	mb, mc := median(base), median(change)
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if !m.better(c, b) {
				allBetter = false
			}
		}
	}
	pairs, wins := min(len(base), len(change)), 0
	for i := 0; i < pairs; i++ {
		if m.better(change[i], base[i]) {
			wins++
		}
	}
	q1, _, q3 := quartiles(base)
	gain := pairs > 0 && float64(wins) >= 0.9*float64(pairs) &&
		m.better(mc, mb) && math.Abs(mc-mb) > q3-q1
	if m.bound == 0 {
		if gain {
			return "better"
		}
		return "-"
	}
	worse := (mc - mb) / math.Abs(mb)
	if m.higherBetter {
		worse = -worse
	}
	switch {
	case math.Max(spread(base), spread(change)) > m.bound && !allBetter:
		return "unresolved"
	case worse > m.bound:
		return "worse"
	case gain:
		return "better"
	}
	return "same"
}

// compare prints, per workload and metric, each side's median and spread
// and the verdict. It returns an error when any end-to-end metric reads
// worse or unresolved.
func compare(w io.Writer, basePath, changePath string) error {
	baseRecs, err := readRecords(basePath)
	if err != nil {
		return err
	}
	changeRecs, err := readRecords(changePath)
	if err != nil {
		return err
	}
	base, change := samples(baseRecs), samples(changeRecs)
	fmt.Fprintf(w, "%-22s %-26s %5s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "runs", "base", "iqr%", "change", "iqr%", "delta%", "bound", "verdict")
	flagged := 0
	for _, name := range sortedKeys(base) {
		cg, ok := change[name]
		if !ok {
			continue
		}
		for _, key := range sortedKeys(base[name]) {
			m, known := lookupMetric(key)
			c, ok := cg[key]
			if !known || !ok {
				continue
			}
			b := base[name][key]
			v := verdict(m, b, c)
			if m.bound > 0 && (v == "worse" || v == "unresolved") {
				flagged++
			}
			mb, mc := median(b), median(c)
			fmt.Fprintf(w, "%-22s %-26s %2d/%-2d %12.5g %7.2f %12.5g %7.2f %8.2f %6.2f  %s\n",
				name, key, len(b), len(c), mb, 100*spread(b), mc, 100*spread(c),
				100*(mc-mb)/math.Abs(mb), m.bound, v)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d end-to-end metrics read worse or unresolved", flagged)
	}
	return nil
}

// medianRecords folds the records of each name into one record holding
// every metric's median, for the committed trajectory.
func medianRecords(w io.Writer, paths []string) error {
	var recs []telemetry.RunRecord
	for _, p := range paths {
		rs, err := readRecords(p)
		if err != nil {
			return err
		}
		recs = append(recs, rs...)
	}
	if len(recs) == 0 {
		return errors.New("median: no input files")
	}
	groups := samples(recs)
	for _, name := range sortedKeys(groups) {
		out := telemetry.NewRunRecord(name)
		var seeds []any
		for _, rr := range recs {
			if rr.Name == name {
				seeds = append(seeds, rr.Params["seed"])
				for k, v := range rr.Params {
					if k != "seed" {
						out.Params[k] = v
					}
				}
			}
		}
		out.Params["seeds"] = seeds
		out.Params["runs"] = len(seeds)
		for key, vs := range groups[name] {
			out.Metrics[key] = median(vs)
		}
		if err := writeRecordLine(w, out); err != nil {
			return err
		}
	}
	return nil
}

// writeRecordLine writes rr as one compact JSON line.
func writeRecordLine(w io.Writer, rr *telemetry.RunRecord) error {
	b, err := json.Marshal(rr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
