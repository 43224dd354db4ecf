"""Reduces one raw perfbench record to the benchmark's metrics.

The C++ driver (perfbench/cpp) writes what it saw: op records, setup
samples, spans, counters and simulated values. Every piece of arithmetic
that turns those into metrics lives here, so it can be unit-tested without
building anything (perfbench/test_reduce.py).
"""

import math
import statistics

# End-to-end metrics, reported by every untraced run of every workload.
END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "1/s",
    "peak_rss_mb": "MiB",
}

# The host is shared, and other tenants' load moves how fast the same op
# runs by up to 1.6x within minutes. The measuring binary times a fixed
# reference kernel of its own right before each measured op (see
# cpp/workloads.h) and each set-up; ops_per_ref_s and setup_s scale each
# op's work per host second and each set-up's time to a host on which that
# kernel takes REF_S seconds. The values are the kernels' times on a quiet
# stretch of the 4-vCPU Xeon VM the benchmark was tuned on, so the scaled
# metrics read close to the raw ones there.
REF_S = {
    "ssgd-train": 0.010,    # ref_sort_s
    "serve-ladder": 0.015,  # ref_alloc_sort_s
    "sched-trace": 0.015,   # ref_alloc_sort_s
}

# Per-layer timings: metric name -> span name. The value is the median,
# over the op groups (one step, one ladder pass, one trace, one probe) that
# contain the span, of the group's summed self time in that span.
SPAN_METRICS = {
    "parallel.trainer_ctor_s": "parallel.trainer_ctor",
    "core.net_ctor_s": "core.net_ctor",
    "core.copy_params_s": "core.copy_params",
    "tensor.fill_s": "tensor.fill",
    "parallel.forward_backward_s": "parallel.forward_backward",
    "parallel.allreduce_s": "parallel.allreduce",
    "parallel.apply_s": "parallel.apply",
    "core.forward_s": "core.forward",
    "core.backward_s": "core.backward",
    "swdnn.conv_forward_s": "swdnn.conv_forward_implicit",
    "parallel.price_iteration_s": "parallel.price_iteration",
    "serve.engine_ctor_s": "serve.engine_ctor",
    "tune.tune_net_s": "tune.tune_net",
    "serve.simulate_s": "serve.simulate_serving",
    "check.serving_extract_s": "check.serving_extract",
    "check.serving_verify_s": "check.serving_verify",
    "sched.generate_workload_s": "sched.generate_workload",
    "sched.profile_job_s": "sched.profile_job",
    "sched.simulate_s": "sched.simulate_schedule",
    "check.sched_extract_s": "check.sched_extract",
    "check.sched_verify_s": "check.sched_verify",
}

# Every per-layer metric with its unit, in report order. A metric of a
# layer a workload does not use reads 0 there.
PER_LAYER = dict(
    [(name, "s") for name in SPAN_METRICS]
    + [
        ("host.setup_s", "s"),
        ("host.ops_per_s", "1/s"),
        ("host.ref_s", "s"),
        ("swgemm.sgemm_gflops", "GFLOP/s"),
        ("topo.wire_bytes_per_step", "bytes"),
        ("tune.accept_ratio", "ratio"),
        ("serve.requests", "count"),
        ("serve.batches", "count"),
        ("sched.spans", "count"),
        ("sched.preemptions", "count"),
        ("sched.resizes", "count"),
        ("sched.overhead_ratio", "ratio"),
        ("sim.train_img_per_s", "img/s"),
        ("sim.train_comm_s", "s"),
        ("sim.train_exposed_comm_s", "s"),
        ("sim.serve_capacity_rps", "1/s"),
        ("sim.serve_p99_s", "s"),
        ("sim.serve_p99_s.x0.5", "s"),
        ("sim.serve_p99_s.x1", "s"),
        ("sim.serve_p99_s.x2", "s"),
        ("sim.serve_p99_s.x4", "s"),
        ("sim.serve_p99_s.burst-x2", "s"),
        ("sim.serve_admit_ratio", "ratio"),
        ("sim.serve_mean_batch", "count"),
        ("sim.sched_slowdown_p95", "ratio"),
        ("sim.sched_wait_p95_s", "s"),
        ("sim.sched_utilization", "ratio"),
        ("sim.table3_rel_err.alexnet", "ratio"),
        ("sim.table3_rel_err.vgg16", "ratio"),
        ("sim.table3_rel_err.resnet50", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.unattributed_ratio", "ratio"),
        ("failed_ratio", "ratio"),
    ]
)

# Counters the C++ side reports that are per-layer metrics as they stand.
PLAIN_COUNTERS = (
    "topo.wire_bytes_per_step",
    "sched.spans",
    "sched.preemptions",
    "sched.resizes",
)

# Op kinds that are not measured work: excluded from throughput.
UNMEASURED_KINDS = ("setup", "warmup", "check", "workload", "table3")

# A serving rung counts toward capacity when at most this share of its
# offered requests is rejected (and its p99 meets the SLO).
CAPACITY_MAX_REJECTED = 0.01

# The workload's unit of work, named for the report.
THROUGHPUT_NAMES = {
    "ssgd-train": "train.samples_per_s",
    "serve-ladder": "serve.sim_requests_per_s",
    "sched-trace": "sched.sim_jobs_per_s",
}


def median(values):
    """Median of a non-empty sequence; 0.0 for an empty one."""
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def ratio(num, den):
    """num / den, or 0.0 when the base is empty (den == 0)."""
    return num / den if den else 0.0


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover. `spans` are [name, op, parent, start, end] rows."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[2] >= 0:
            children[s[2]].append((s[3], s[4]))
    return [s[4] - s[3] - covered(children[i], s[3], s[4])
            for i, s in enumerate(spans)]


def layer_samples(spans):
    """span name -> list of per-op-group summed self times."""
    own = self_times(spans)
    groups = {}
    for s, t in zip(spans, own):
        key = (s[0], s[1])
        groups[key] = groups.get(key, 0.0) + t
    out = {}
    for (name, _op), t in sorted(groups.items(), key=lambda kv: kv[0][1]):
        out.setdefault(name, []).append(t)
    return out


def group_walls(ops, traced):
    """op id -> (summed wall, summed items) over measured ops."""
    groups = {}
    for o in ops:
        if o["kind"] in UNMEASURED_KINDS or o["traced"] != traced:
            continue
        wall, items = groups.get(o["op"], (0.0, 0.0))
        groups[o["op"]] = (wall + o["wall_s"], items + o["items"])
    return groups


def ops_per_s(ops):
    """Median over untraced op groups of items per host second."""
    rates = [ratio(items, wall)
             for wall, items in group_walls(ops, False).values()]
    return median(rates)


def ops_per_ref_s(ops, refs, ref_s):
    """Median over untraced op groups of items per host second, each scaled
    by ref / ref_s, where ref is the reference kernel's time right before
    the group (`refs`: op id -> seconds)."""
    rates = [ratio(items, wall) * refs[op] / ref_s
             for op, (wall, items) in group_walls(ops, False).items()]
    return median(rates)


def setup_ref_s(ops, refs, ref_s):
    """Median over set-ups of their wall time, each scaled by ref_s / ref,
    where ref is the reference kernel's time right before the set-up."""
    return median([o["wall_s"] * ref_s / refs[o["op"]]
                   for o in ops if o["kind"] == "setup"])


def ref_times(record):
    """op id -> reference kernel seconds timed right before that op."""
    return {op: s for op, s in record["host_ref_s"]}


def overhead_ratio(ops):
    """Median traced op-group wall over median untraced op-group wall."""
    traced = [w for w, _ in group_walls(ops, True).values()]
    untraced = [w for w, _ in group_walls(ops, False).values()]
    return ratio(median(traced), median(untraced))


def unattributed_ratio(spans):
    """Share of op-span time (the timed wall of each traced op) that no
    layer span inside it covers."""
    own = self_times(spans)
    total = sum(s[4] - s[3] for s in spans if s[0].startswith("op."))
    rest = sum(t for s, t in zip(spans, own) if s[0].startswith("op."))
    return ratio(rest, total)


def capacity_rps(rungs, slo_s):
    """Highest Poisson rung rate whose p99 meets the SLO with at most
    CAPACITY_MAX_REJECTED of its offered requests rejected; 0.0 if none."""
    best = 0.0
    for r in rungs:
        if not r["poisson"]:
            continue
        if (r["p99_s"] <= slo_s
                and ratio(r["rejected"], r["offered"]) <= CAPACITY_MAX_REJECTED):
            best = max(best, r["rate"])
    return best


def sim_values(record):
    """Every simulated value of the run: the C++ side's plus the derived
    serving ones. Deterministic: the simulated-bit guard compares them."""
    sim = dict(record["sim"])
    rungs = record.get("rungs")
    if rungs:
        slo = sim["sim.serve_slo_s"]
        offered = sum(r["offered"] for r in rungs)
        admitted = sum(r["admitted"] for r in rungs)
        batches = sum(r["batches"] for r in rungs)
        for r in rungs:
            sim["sim.serve_p99_s." + r["name"]] = r["p99_s"]
        sim["sim.serve_p99_s"] = sim["sim.serve_p99_s.x1"]
        sim["sim.serve_capacity_rps"] = capacity_rps(rungs, slo)
        sim["sim.serve_admit_ratio"] = ratio(admitted, offered)
        sim["sim.serve_mean_batch"] = ratio(admitted, batches)
    return sim


def sim_guard(seen, sim):
    """Compares this run's simulated values with the hex ledger `seen` of
    earlier runs of the same code, workload and seed. Returns the names that
    are not finite (None stands for a non-finite value the binary wrote as
    null), the names whose bits differ from the ledger, and the ledger with
    this run's finite values added. A value the ledger already holds keeps
    its first recording."""
    bad = sorted(k for k, v in sim.items()
                 if v is None or not math.isfinite(v))
    changed = sorted(k for k, v in sim.items()
                     if k not in bad and k in seen
                     and float.fromhex(seen[k]) != v)
    ledger = dict(seen)
    for k, v in sim.items():
        if k not in bad:
            ledger.setdefault(k, float(v).hex())
    return bad, changed, ledger


def rung_counts(record):
    """serve.requests / serve.batches of one ladder pass (0 without one)."""
    rungs = record.get("rungs", [])
    return {"serve.requests": sum(r["offered"] for r in rungs),
            "serve.batches": sum(r["batches"] for r in rungs)}


def reduce(record):
    """Raw record -> dict with attempted/failed, end-to-end and per-layer
    metrics (each {"value", "unit", "n"}: n is the count base), sim values
    and the named throughput."""
    ops = record["ops"]
    spans = record["spans"]
    counters = record["counters"]
    attempted = len(ops)
    failed = sum(1 for o in ops if not o["ok"])
    sim = sim_values(record)

    measured = group_walls(ops, False)
    refs = ref_times(record)
    ref_s = REF_S[record["workload"]]
    e2e = {
        "setup_s": (setup_ref_s(ops, refs, ref_s), len(record["setup_s"])),
        "ops_per_ref_s": (ops_per_ref_s(ops, refs, ref_s), len(measured)),
        "peak_rss_mb": (counters["peak_rss_kib"] / 1024.0, 1),
    }

    layer = {name: (0.0, 0) for name in PER_LAYER}
    layer["host.setup_s"] = (median(record["setup_s"]), len(record["setup_s"]))
    layer["host.ops_per_s"] = (ops_per_s(ops), len(measured))
    layer["host.ref_s"] = (median([refs[op] for op in measured]),
                           len(measured))
    samples = layer_samples(spans)
    for metric, span in SPAN_METRICS.items():
        got = samples.get(span, [])
        layer[metric] = (median(got), len(got))
    gemm = samples.get("swgemm.sgemm", [])
    if gemm:
        layer["swgemm.sgemm_gflops"] = (
            ratio(counters["swgemm.sgemm_flops"], median(gemm)) / 1e9,
            len(gemm))
    for name in PLAIN_COUNTERS:
        if name in counters:
            layer[name] = (counters[name], 1)
    if record.get("rungs"):
        for name, value in rung_counts(record).items():
            layer[name] = (value, 1)
    if "tune.candidates_evaluated" in counters:
        ev = counters["tune.candidates_evaluated"]
        layer["tune.accept_ratio"] = (
            ratio(ev - counters["tune.candidates_rejected"], ev), int(ev))
    if "sched.busy_node_s" in counters:
        layer["sched.overhead_ratio"] = (
            ratio(counters["sched.overhead_node_s"],
                  counters["sched.busy_node_s"]), 1)
    for name in PER_LAYER:
        if name in sim:
            layer[name] = (sim[name], 1)
    traced_groups = len(group_walls(ops, True))
    if record["trace"]:
        layer["trace.overhead_ratio"] = (overhead_ratio(ops), traced_groups)
        layer["trace.unattributed_ratio"] = (
            unattributed_ratio(spans), traced_groups)
    layer["failed_ratio"] = (ratio(failed, attempted), attempted)

    def table(values, units):
        return {k: {"value": values[k][0], "unit": units[k], "n": values[k][1]}
                for k in units}

    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": table(e2e, END_TO_END),
        "per_layer": table(layer, PER_LAYER),
        "sim": sim,
        "throughput_name": THROUGHPUT_NAMES.get(record["workload"], ""),
    }
