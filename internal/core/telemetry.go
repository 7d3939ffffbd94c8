package core

import (
	"fmt"
	"sort"
	"time"

	"gofmm/internal/linalg"
	"gofmm/internal/sched"
	"gofmm/internal/telemetry"
)

// This file is the bridge between the algorithm code and the telemetry
// layer: phase timers that keep the legacy Stats fields and the telemetry
// span tree in agreement, an entry-oracle wrapper that counts At/Submatrix
// traffic, and the exporter that ships a traced scheduler run into the
// recorder (worker task events, scheduler-health metrics, per-phase
// aggregate spans).

// phaseTimer times one algorithm phase. When a recorder is attached the
// span is the single source of truth — End returns the span's duration, and
// the same number appears in the telemetry snapshot — otherwise it degrades
// to a plain stopwatch so the Stats fields keep working with telemetry off.
type phaseTimer struct {
	sp *telemetry.Span
	t0 time.Time
}

// startPhase opens a child span under parent (nil-safe) and starts the
// fallback stopwatch.
func startPhase(parent *telemetry.Span, name string) phaseTimer {
	return phaseTimer{sp: parent.StartSpan(name), t0: time.Now()}
}

// End closes the phase and returns its duration in seconds.
func (p phaseTimer) End() float64 {
	if d := p.sp.End(); d > 0 {
		return d.Seconds()
	}
	return time.Since(p.t0).Seconds()
}

// tracedSPD wraps an entry oracle with telemetry counters: the number of
// At, Submatrix and Column calls and the total entries gathered — the
// currency of the O(N log N) compression claim, now visible per run.
type tracedSPD struct {
	K       SPD
	at      *telemetry.Counter
	sub     *telemetry.Counter
	col     *telemetry.Counter
	entries *telemetry.Counter
}

// newTracedSPD wraps K; with a nil recorder it returns K unchanged.
func newTracedSPD(K SPD, rec *telemetry.Recorder) SPD {
	if rec == nil {
		return K
	}
	return &tracedSPD{
		K:       K,
		at:      rec.Counter("oracle.at.calls"),
		sub:     rec.Counter("oracle.submatrix.calls"),
		col:     rec.Counter("oracle.column.calls"),
		entries: rec.Counter("oracle.entries"),
	}
}

func (t *tracedSPD) Dim() int { return t.K.Dim() }

func (t *tracedSPD) At(i, j int) float64 {
	t.at.Add(1)
	t.entries.Add(1)
	return t.K.At(i, j)
}

// Submatrix implements Bulk, gathering through the wrapped oracle's fast
// paths when it has them.
func (t *tracedSPD) Submatrix(I, J []int, dst *linalg.Matrix) {
	t.sub.Add(1)
	t.entries.Add(int64(len(I)) * int64(len(J)))
	Gather(t.K, I, J, dst)
}

// Column implements metric.Columns: one call and len(I) entries, read
// through the wrapped oracle's column read when it has one.
func (t *tracedSPD) Column(I []int, j int, dst []float64) {
	t.col.Add(1)
	t.entries.Add(int64(len(I)))
	readColumn(t.K, I, j, dst)
}

// exportEngineTrace ships a traced engine run into the recorder: one task
// event per execution (worker tracks in the Chrome trace), scheduler-health
// metrics under the given prefix, and per-phase aggregate spans (min start
// to max end per task-label prefix, e.g. all N2S(·) tasks) attached under
// parent. runOffset is the recorder time at which the engine run started.
func exportEngineTrace(rec *telemetry.Recorder, parent *telemetry.Span,
	prefix string, eng *sched.Engine, runOffset time.Duration) {
	if rec == nil {
		return
	}
	evs := eng.Trace()
	if len(evs) == 0 {
		return
	}
	type window struct {
		lo, hi time.Duration
		seen   bool
	}
	phases := map[string]*window{}
	tevs := make([]telemetry.TaskEvent, len(evs))
	waitHist := rec.Histogram(prefix + ".queue_wait_us")
	for i, ev := range evs {
		start := runOffset + ev.WallStart
		tevs[i] = telemetry.TaskEvent{
			Name:       ev.Task.Label,
			Worker:     ev.Worker,
			Start:      start,
			Dur:        ev.Dur,
			Wait:       ev.QueueWait,
			StolenFrom: ev.StolenFrom,
		}
		waitHist.Observe(float64(ev.QueueWait.Microseconds()))
		name := taskPhase(ev.Task.Label)
		w := phases[name]
		if w == nil {
			w = &window{}
			phases[name] = w
		}
		if !w.seen || start < w.lo {
			w.lo = start
		}
		if end := start + ev.Dur; !w.seen || end > w.hi {
			w.hi = end
		}
		w.seen = true
	}
	rec.AddTaskEvents(tevs)
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		parent.AddChild(name, phases[name].lo, phases[name].hi)
	}
	sum := eng.Summary()
	rec.Counter(prefix + ".tasks").Add(int64(sum.Tasks))
	rec.Counter(prefix + ".steals").Add(int64(sum.Steals))
	rec.Gauge(prefix + ".utilization").Set(sum.Utilization)
	rec.Gauge(prefix + ".max_queue_depth").Set(float64(sum.MaxQueueDepth))
	rec.Gauge(prefix + ".critical_path_seconds").Set(sum.CriticalPath.Seconds())
}

// taskPhase maps a task label like "N2S(12)" to its phase name "N2S".
func taskPhase(label string) string {
	for i := 0; i < len(label); i++ {
		if label[i] == '(' {
			return label[:i]
		}
	}
	return label
}

// recordSkelNode logs per-node skeletonization telemetry: the rank
// distribution and per-tree-level time accounting (how the SKEL work is
// spread across levels, whatever order the executor ran them in).
func (h *Hierarchical) recordSkelNode(id int, t0 time.Time) {
	rec := h.Cfg.Telemetry
	if rec == nil {
		return
	}
	rec.Histogram("skel.rank").Observe(float64(len(h.nodes[id].skel)))
	level := h.Tree.Nodes[id].Level
	rec.Counter(fmt.Sprintf("skel.level.%02d.ns", level)).Add(time.Since(t0).Nanoseconds())
}

// TelemetryReport returns the attached recorder's human-readable report
// ("telemetry disabled" when Config.Telemetry is nil).
func (h *Hierarchical) TelemetryReport() string {
	return h.Cfg.Telemetry.Report()
}
