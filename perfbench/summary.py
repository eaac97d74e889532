"""Summarizing rules of the repo benchmark.

Everything that turns a driver's raw record into reported numbers lives
here, so the rules are unit-tested in one place (tests/test_summary.py):

* percentile(): order-statistic interpolation with the sample rule -- a
  percentile is reported only when at least MIN_BEYOND samples lie beyond
  it, and always with its sample count.
* self_times(): a span's duration minus the part of its interval that
  child spans cover (the union of the children, from any thread, clipped
  to the parent).
* load_trace(): the obs::TraceSession chunks a traced phase drained.
* quiet_pool(): the quietest slices of a phase, which the end-to-end host
  times come from.
* end_to_end() / per_layer(): the metric tables of one run.

The metric catalogue (names, units, direction, bounds) is METRICS; it is
the single source of BENCHMARK.json (see benchmark_json()).
"""

import bisect
import json
import math
import statistics
from collections import defaultdict

MIN_BEYOND = 10

WORKLOADS = [
    ("mlp_forward_sparse",
     "back-to-back fused MLP forwards on 75%-zero inputs: app, engine and the adaptive "
     "macro datapath do the work"),
    ("serve_mixed_churn",
     "heterogeneous ops, chains and forwards on a 2-memory pool with pin churn: cache "
     "misses, evictions, no coalescing"),
    ("mc_bl_characterization",
     "circuit/timing Monte Carlo of Fig. 2 (BL delay and ADM), which no other workload "
     "touches"),
]

# (name, unit, better, bound): bound is the share of the parent's median a
# metric may worsen by before a change counts as a regression.
END_TO_END = [
    ("throughput_rps", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
]

# (name, unit, better); no bounds -- these explain, they do not gate.
PER_LAYER = [
    ("modeled_cycles_per_req", "cycles", "lower"),
    ("modeled_energy_nj_per_req", "nJ", "lower"),
    ("error_rate", "frac", "lower"),
    ("app.forward_us", "us", "lower"),
    ("app.self_us", "us", "lower"),
    ("serve.submit_us", "us", "lower"),
    ("serve.wait_us", "us", "lower"),
    ("serve.schedule_self_us", "us", "lower"),
    ("serve.batch_occupancy", "req/batch", "higher"),
    ("serve.peak_queue_depth", "count", "lower"),
    ("serve.lane_busy_frac.m0", "frac", "lower"),
    ("serve.lane_busy_frac.m1", "frac", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("engine.dispatch_self_us", "us", "lower"),
    ("engine.op_cache_hit_ratio", "frac", "higher"),
    ("engine.materializations_per_req", "count/req", "lower"),
    ("engine.evictions_per_req", "count/req", "lower"),
    ("engine.load_cycles_per_req", "cycles/req", "lower"),
    ("engine.fusion_fallback_frac", "frac", "lower"),
    ("engine.fusion_recompiles", "count", "lower"),
    ("macro.instructions_per_req", "instr/req", "lower"),
    ("macro.host_ns_per_instruction", "ns", "lower"),
    ("macro.adaptive_saved_frac", "frac", "higher"),
    ("macro.fused_saved_frac", "frac", "higher"),
    ("macro.verify_rejected", "count", "lower"),
    ("timing.bl_delay_us_per_trial.boost", "us", "lower"),
    ("timing.bl_delay_us_per_trial.wlud", "us", "lower"),
    ("timing.adm_us_per_trial.wlud", "us", "lower"),
    ("timing.adm_us_per_trial.shortwl", "us", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
    ("obs.trace_dropped_events", "count", "lower"),
]

RUN_SECONDS = 35
SLICE_S = 0.1  # CPU seconds per slice of a phase (see quiet_pool())
QUIET_SHARE = 0.05  # share of a phase's slices, and quantile of its set-ups, reported

METRICS = {name: {"unit": unit, "better": better, "bound": bound}
           for name, unit, better, bound in END_TO_END}
METRICS.update({name: {"unit": unit, "better": better, "bound": None}
                for name, unit, better in PER_LAYER})


def benchmark_json():
    """The BENCHMARK.json document this catalogue defines."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ---- percentiles -------------------------------------------------------------

class NotEnoughSamples(ValueError):
    """A percentile was asked of too few samples to have MIN_BEYOND past it."""


def samples_beyond(n, q):
    """Order statistics strictly past the interpolation point of quantile q."""
    return n - 1 - math.floor((n - 1) * q)


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """(value, sample count) of quantile q in [0, 1].

    Linear interpolation between order statistics (position (n-1)q, the
    SampleSet convention of src/common/stats.hpp). Raises NotEnoughSamples
    unless at least `min_beyond` samples lie beyond that position.
    """
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < min_beyond:
        raise NotEnoughSamples(
            f"p{q * 100:g} of {n} samples: need {min_beyond} beyond it, "
            f"have {samples_beyond(n, q) if n else 0}")
    xs = sorted(samples)
    h = (n - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (h - lo), n


def p50_or_zero(samples):
    """Median under the sample rule, or 0.0 where the layer saw too little work."""
    try:
        return percentile(samples, 0.5)[0]
    except NotEnoughSamples:
        return 0.0


# ---- self time ---------------------------------------------------------------

def merge_intervals(intervals):
    """Disjoint, sorted union of (start, end) intervals."""
    merged = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1][1] = e
        else:
            merged.append([s, e])
    return merged


def self_times(parents, children):
    """Self time of each parent (start, end): its duration minus the length
    of its interval covered by the union of `children`.

    Children may nest, overlap each other, start before or end after the
    parent (only the overlap counts), and come from any thread -- a child is
    matched by time alone, so fold only span kinds that one producer emits
    at a time (one caller, one scheduler).
    """
    merged = merge_intervals(children)
    starts = [s for s, _ in merged]
    out = []
    for ps, pe in parents:
        covered = 0.0
        i = max(bisect.bisect_right(starts, ps) - 1, 0)
        while i < len(merged) and merged[i][0] < pe:
            s, e = merged[i]
            covered += max(0.0, min(e, pe) - max(s, ps))
            i += 1
        out.append((pe - ps) - covered)
    return out


# ---- trace chunks ------------------------------------------------------------

class Trace:
    """Complete spans by name as (start_us, end_us, tid, args), track names by
    tid, and the per-macro-program instants as (ts_us, instructions)."""

    def __init__(self):
        self.spans = defaultdict(list)
        self.track_names = {}
        self.macro_programs = []

    def intervals(self, *names):
        return [(s, e) for n in names for s, e, _, _ in self.spans.get(n, ())]

    def durations(self, *names):
        return [e - s for s, e in self.intervals(*names)]

    def add_chunk(self, doc):
        for ev in doc.get("traceEvents", ()):
            ph = ev.get("ph")
            if ph == "X":
                ts = ev["ts"]
                self.spans[ev["name"]].append((ts, ts + ev["dur"], ev["tid"], ev.get("args", {})))
            elif ph == "M" and ev.get("name") == "thread_name":
                self.track_names[ev["tid"]] = ev["args"]["name"]
            elif ph == "i" and ev.get("name") == "macro.program":
                self.macro_programs.append((ev["ts"], ev.get("args", {}).get("instructions", 0.0)))

    def instructions_within(self, intervals):
        """Instructions of the macro programs that ran inside `intervals`."""
        merged = merge_intervals(intervals)
        starts = [s for s, _ in merged]
        total = 0.0
        for ts, n in self.macro_programs:
            i = bisect.bisect_right(starts, ts) - 1
            if i >= 0 and ts <= merged[i][1]:
                total += n
        return total


def load_trace(paths):
    trace = Trace()
    for p in paths:
        with open(p) as f:
            trace.add_chunk(json.load(f))
    return trace


# ---- metric tables -----------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def pairs(flat):
    """[s0, e0, s1, e1, ...] -> [(s0, e0), (s1, e1), ...]"""
    return list(zip(flat[0::2], flat[1::2]))


def count_within(points, windows):
    """How many of `points` fall inside any of the disjoint `windows`."""
    windows = sorted(windows)
    starts = [s for s, _ in windows]
    n = 0
    for x in points:
        i = bisect.bisect_right(starts, x) - 1
        if i >= 0 and x <= windows[i][1]:
            n += 1
    return n


def quiet_pool(latency_us, done_us, span_s):
    """The quietest part of a phase: cut its `span_s` seconds into slices of
    SLICE_S, rank them by median latency, and pool the fastest -- at least
    QUIET_SHARE of them, and as many more as the p99 needs to have
    MIN_BEYOND samples past it. `done_us` are the completion instants on the
    same clock as `span_s`. Returns (pooled seconds, pooled latencies);
    raises NotEnoughSamples when the whole phase is too short."""
    k = max(1, int(span_s / SLICE_S))
    width = span_s * 1e6 / k
    slices = [[] for _ in range(k)]
    for lat, done in zip(latency_us, done_us):
        slices[min(max(int(done // width), 0), k - 1)].append(lat)
    ranked = sorted(slices, key=lambda s: statistics.median(s) if s else math.inf)
    need = math.ceil(QUIET_SHARE * k)
    pool = []
    for i, s in enumerate(ranked, 1):
        pool.extend(s)
        if i >= need and samples_beyond(len(pool), 0.99) >= MIN_BEYOND:
            return i * width * 1e-6, pool
    raise NotEnoughSamples(f"p99 of {len(latency_us)} samples in {span_s:.3g} s: "
                           f"need {MIN_BEYOND} beyond it")


def merge_parts(raws):
    """One raw record of an untraced run made of several driver processes
    ("parts", run one after another): the parts' requests on one CPU
    timeline, in order; counts and set-up samples summed or pooled; the
    largest peak RSS; every failed aggregate check."""
    merged = dict(raws[0])
    lat, cpu_done, offset = [], [], 0.0
    counts = defaultdict(int)
    for raw in raws:
        ph = raw["phases"]["untraced"]
        lat += ph["latency_us"]
        cpu_done += [offset + d for d in ph["cpu_done_us"]]
        offset += ph["cpu_s"] * 1e6
        for k in ("attempted", "completed", "failed", "mismatches"):
            counts[k] += ph[k]
    merged["setup_s"] = [s for raw in raws for s in raw["setup_s"]]
    merged["peak_rss_mb"] = max(raw["peak_rss_mb"] for raw in raws)
    merged["check"] = "; ".join(raw["check"].rstrip("; ") for raw in raws if raw["check"])
    first_mismatch = next((raw["phases"]["untraced"]["first_mismatch"] for raw in raws
                           if raw["phases"]["untraced"]["first_mismatch"]), "")
    merged["phases"] = {"untraced": dict(counts, latency_us=lat, cpu_done_us=cpu_done,
                                         cpu_s=offset * 1e-6, first_mismatch=first_mismatch)}
    return merged


def end_to_end(raw):
    """End-to-end metrics of an untraced run: {name: (value, unit, samples)}.

    Host times are on the process's CPU clock (the driver pins the process
    to one vCPU and keeps it busy; see driver/harness.hpp), so time the host
    gives to others is not counted. The shared host still runs the same code
    at two speeds, a fast state and one ~1.7x slower, each lasting seconds;
    a run's share of each varies, and with it any mean or median over the
    whole run. So throughput and latency come from the run's quietest slices
    (quiet_pool()), and setup_s is the QUIET_SHARE quantile of the set-ups
    timed through the run.
    """
    ph = raw["phases"]["untraced"]
    lat = ph["latency_us"]
    pooled_s, pool = quiet_pool(lat, ph["cpu_done_us"], ph["cpu_s"])
    setups = raw["setup_s"]
    out = {
        "throughput_rps": (len(pool) / pooled_s, len(pool)),
        "latency_p50_us": percentile(pool, 0.5),
        "latency_p99_us": percentile(pool, 0.99),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "setup_s": percentile(setups, QUIET_SHARE, min_beyond=0),
    }
    return {k: (v, METRICS[k]["unit"], s) for k, (v, s) in out.items()}


def modeled(phase, workload):
    """(cycles, energy nJ) per completed request of one phase."""
    st = phase["stats"]
    done = phase["completed"]
    if workload.startswith("serve_"):
        return _ratio(st["makespan_cycles"], st["server_completed"]), _ratio(st["energy_nj"], done)
    if workload == "mlp_forward_sparse":
        return _ratio(phase["cycles"], done), _ratio(st["energy_nj"], done)
    return 0.0, 0.0


def per_layer(raw, trace):
    """Per-layer metrics of a traced run: {name: (value, unit, samples)}."""
    wl = raw["workload"]
    base = raw["phases"]["untraced"]
    ph = raw["phases"]["traced"]
    st = ph["stats"]
    done = ph["completed"]
    m = {}

    cycles, energy = modeled(base, wl)
    m["modeled_cycles_per_req"] = cycles
    m["modeled_energy_nj_per_req"] = energy
    attempted = base["attempted"] + ph["attempted"]
    m["error_rate"] = _ratio(base["failed"] + ph["failed"], attempted)

    fwd = trace.intervals("bench.forward")
    m["app.forward_us"] = p50_or_zero([e - s for s, e in fwd])
    m["app.self_us"] = p50_or_zero(self_times(fwd, trace.intervals("engine.run_forward")))

    m["serve.submit_us"] = p50_or_zero(trace.durations("bench.submit"))
    m["serve.wait_us"] = p50_or_zero(trace.durations("bench.wait"))
    m["serve.schedule_self_us"] = p50_or_zero(self_times(
        trace.intervals("serve.schedule"), trace.intervals("serve.batch", "serve.fused")))
    m["serve.batch_occupancy"] = _ratio(st.get("server_completed", 0), st.get("batches", 0))
    m["serve.peak_queue_depth"] = st.get("peak_queue_depth", 0.0)
    # Tracing is on only inside the drain's windows: time-based ratios take
    # the windows' total as their base.
    windows = pairs(raw["trace_windows_us"])
    on_us = sum(e - s for s, e in windows)
    busy = defaultdict(float)
    for name in ("serve.batch", "serve.fused"):
        for s, e, tid, _ in trace.spans.get(name, ()):
            busy[trace.track_names.get(tid, "")] += e - s
    for lane in (0, 1):
        m[f"serve.lane_busy_frac.m{lane}"] = _ratio(busy[f"lane {lane}"], on_us)
    m["serve.rejected"] = base["stats"].get("rejected", 0.0) + st.get("rejected", 0.0)
    m["serve.expired"] = base["stats"].get("expired", 0.0) + st.get("expired", 0.0)

    engine_spans = trace.intervals("engine.run_batch", "engine.run_forward", "engine.run_chain")
    engine_self = self_times(engine_spans, [
        iv for name in trace.spans if name.startswith("macro.") for iv in trace.intervals(name)])
    m["engine.dispatch_self_us"] = p50_or_zero(engine_self)
    hits = st.get("op_cache_hits", 0.0)
    m["engine.op_cache_hit_ratio"] = _ratio(hits, hits + st.get("op_cache_compiled", 0.0))
    m["engine.materializations_per_req"] = _ratio(st.get("materializations", 0.0), done)
    m["engine.evictions_per_req"] = _ratio(st.get("evictions", 0.0), done)
    m["engine.load_cycles_per_req"] = _ratio(st.get("load_cycles", 0.0), done)
    fused = st.get("fused_runs", 0.0)
    fallback = st.get("fallback_runs", 0.0)
    m["engine.fusion_fallback_frac"] = _ratio(fallback, fused + fallback)
    m["engine.fusion_recompiles"] = st.get("fusion_recompiles", 0.0)

    # Instructions: the results' RunStats where requests return them (serve),
    # else the per-macro-program instants inside whole recorded forwards
    # (app::Mlp keeps its RunStats to itself).
    if ph["instructions"]:
        per_req = _ratio(ph["instructions"], done)
    else:
        per_req = _ratio(trace.instructions_within(fwd), len(fwd))
    m["macro.instructions_per_req"] = per_req
    # Engine self time exists only inside the trace windows: per request
    # completed there, then per instruction.
    in_windows = count_within([ph["start_us"] + d for d in ph["done_us"]], windows)
    m["macro.host_ns_per_instruction"] = _ratio(_ratio(sum(engine_self) * 1e3, in_windows), per_req)
    static = ph["cycles"] + ph["fused_saved"] + ph["adaptive_saved"]
    m["macro.adaptive_saved_frac"] = _ratio(ph["adaptive_saved"], static)
    m["macro.fused_saved_frac"] = _ratio(ph["fused_saved"], static)
    m["macro.verify_rejected"] = base["stats"].get("verify_rejected", 0.0) + st.get("verify_rejected", 0.0)

    for metric, span in (("timing.bl_delay_us_per_trial.boost", "bench.mc.bl_delay.boost"),
                         ("timing.bl_delay_us_per_trial.wlud", "bench.mc.bl_delay.wlud"),
                         ("timing.adm_us_per_trial.wlud", "bench.mc.adm.wlud"),
                         ("timing.adm_us_per_trial.shortwl", "bench.mc.adm.shortwl")):
        calls = trace.spans.get(span, ())
        m[metric] = _ratio(sum(e - s for s, e, _, _ in calls),
                           sum(a.get("trials", 0.0) for _, _, _, a in calls))

    untraced_rps = _ratio(base["completed"], base["wall_s"])
    traced_rps = _ratio(in_windows, on_us * 1e-6)
    m["obs.trace_overhead_frac"] = 1.0 - _ratio(traced_rps, untraced_rps)
    m["obs.trace_dropped_events"] = float(raw["trace_dropped"])

    samples = {"app.forward_us": len(fwd), "serve.submit_us": len(trace.spans.get("bench.submit", ())),
               "serve.wait_us": len(trace.spans.get("bench.wait", ())),
               "engine.dispatch_self_us": len(engine_spans)}
    return {k: (v, METRICS[k]["unit"], samples.get(k, 1)) for k, v in m.items()}
