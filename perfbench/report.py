"""Turn the driver's raw measurements into the benchmark's metrics.

End-to-end metrics come from the untraced run only; per-layer metrics from the
traced run (plus the untraced baseline for the tracing overhead). Every
per-step count is a total over whole fixed-span batches divided by their
steps, so it repeats exactly for a given seed however many batches a run fits.
"""

import statistics

import stats

SECONDS_PER_YEAR = 365.0 * 86400.0

# Physical phases of LicomModel::step(), in call order.
PHASES = ("readyt", "vmix", "readyc", "barotr", "bclinc", "tracer")
# The four kernels that dominate a step and the four fused chains.
KERNELS = ("adv_r_factors", "trc_column", "adv_low_order_pair", "adv_correct",
           "bclinc_column", "dyn_rho_p", "dyn_tend_mean", "trc_hdiff_pair")
# Halo spans are grouped by category and name suffix, not by engine-specific
# names, so merging or renaming halo engines does not break the benchmark.
HALO_GROUPS = {"begin": "_begin", "finish": "_finish", "zonal": "_zonal"}

END_TO_END = {  # name -> unit
    "sypd": "SYPD",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

PER_LAYER = {  # name -> unit
    "core.step_ms": "ms",
    **{f"core.{p}_ms": "ms" for p in PHASES},
    **{f"kxx.{k}_ms": "ms" for k in KERNELS},
    "kxx.dispatches_per_step": "count",
    "kxx.pack_lane_util": "ratio",
    "halo.msgs_per_step": "count",
    "halo.bytes_per_step": "count",
    "halo.equiv_msgs_per_step": "count",
    "halo.self_copies_per_step": "count",
    "halo.skipped_per_step": "count",
    "halo.subcycle_msgs_per_step": "count",
    "halo.begin_ms": "ms",
    "halo.finish_ms": "ms",
    "halo.zonal_ms": "ms",
    "halo.box_copy_ms": "ms",
    "comm.msgs_per_step": "count",
    "comm.bytes_per_step": "count",
    "comm.allreduce_us": "us",
    "swsim.dma_mb_per_step": "MB",
    "swsim.dma_transfers_per_step": "count",
    "swsim.spawns_per_step": "count",
    "swsim.ldm_high_water_kb": "KiB",
    "swsim.mpe_fallbacks_per_step": "count",
    "resilience.ckpt_write_ms": "ms",
    "resilience.ckpt_verify_ms": "ms",
    "resilience.ckpt_restore_ms": "ms",
    "resilience.ckpt_mb": "MB",
    "resilience.generations": "count",
    "farm.queue_wait_s": "s",
    "farm.lease_wall_s": "s",
    "farm.admissions": "count",
    "farm.preemptions": "count",
    "farm.member_sypd": "SYPD",
    "farm.overhead_frac": "ratio",
    "grid.build_ms": "ms",
    "decomp.plan_ms": "ms",
    "core.model_init_ms": "ms",
    "decomp.imbalance_census": "ratio",
    "telemetry.overhead_frac": "ratio",
    "host.stream_gbs": "GB/s",
}


# ---------------------------------------------------------------------------
# Operation accounting and output checks.

def operations(raw):
    """(attempted, failed, problems) over every operation of a driver run.

    Operations are model steps (member steps for the farm), checkpoint
    generations, and final-state CRC comparisons: each batch against the
    first untraced batch, which pins untraced-vs-traced equality too. A batch
    that threw, ended unhealthy or left a tenant short counts all its steps
    as failed; refused or failed work is never dropped from `attempted`.
    """
    problems = []
    attempted = failed = 0
    batches = [("untraced", b) for b in raw["untraced"]] + [("traced", b) for b in raw["traced"]]
    reference = next((b["crc"] for _, b in batches if not b["error"]), None)
    for i, (kind, b) in enumerate(batches):
        attempted += b["steps_attempted"]
        failed += b["steps_failed"]
        if b["error"]:
            problems.append(f"{kind} batch {i} failed: {b['error']}")
        elif b["steps_failed"]:
            problems.append(f"{kind} batch {i}: {b['steps_failed']} steps failed the output "
                            f"checks (diagnostics {b['diag']})")
        for t in b["tenants"]:
            if t["state"] != "completed" or t["final_crcs"] == 0:
                problems.append(f"{kind} batch {i}: tenant {t['name']} ended {t['state']} "
                                f"with {t['final_crcs']} final CRCs {t['error']}")
        attempted += b["ckpt_checked"]
        failed += b["ckpt_failed"]
        if b["ckpt_failed"]:
            problems.append(f"{kind} batch {i}: {b['ckpt_failed']} checkpoint generations "
                            "failed verification")
        if i > 0:
            attempted += 1
            if b["error"] or b["crc"] != reference:
                failed += 1
                problems.append(f"{kind} batch {i}: final-state CRC {b['crc']} differs from "
                                f"{reference}")
    return attempted, failed, problems


def _timed_samples(batches):
    return [x for b in batches if not b["error"] for x in b["step_ms"]]


def end_to_end(raw):
    """(metrics, details, attempted, failed, problems) of an e2e driver run."""
    attempted, failed, problems = operations(raw)
    good = [b for b in raw["untraced"] if not b["error"]]
    samples = _timed_samples(raw["untraced"])
    if not samples:
        raise ValueError("no step samples: every untraced batch failed")
    sim = sum(b["sim_s"] for b in good)
    wall = sum(b["wall_s"] for b in good)
    pct, tail_value, n, beyond = stats.tail(samples)
    metrics = {
        "sypd": (sim / SECONDS_PER_YEAR) / (wall / 86400.0),
        "step_ms_p50": stats.median(samples),
        "step_ms_tail": tail_value,
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_rate": 1.0 - failed / attempted,
    }
    details = {
        "step_ms_p50": f"median of n={n} samples",
        "step_ms_tail": f"p{pct:g} of n={n} samples ({beyond} beyond it)",
        "sypd": f"{sim / 86400.0:.2f} simulated days in {wall:.2f} s wall over "
                f"{len(good)} batches",
        "setup_s": f"median of {len(raw['setup_s'])} set-ups",
        "ok_rate": f"1 - error_rate; error_rate = {failed}/{attempted}",
    }
    return metrics, details, attempted, failed, problems


# ---------------------------------------------------------------------------
# Per-layer metrics.

def _path_tree(paths):
    """Aggregates under the program's `step` span, keyed by path, with direct-child totals."""
    tree = {p["name"]: p for p in paths if p["name"] == "step" or p["name"].startswith("step/")}
    child_total = {}
    for name, p in tree.items():
        parent = name.rpartition("/")[0]
        if parent:
            child_total[parent] = child_total.get(parent, 0.0) + p["total_s"]
    return tree, child_total


def _self_s(tree, child_total, name):
    return tree[name]["total_s"] - child_total.get(name, 0.0)


def _group_inclusive_s(tree, matches):
    """Inclusive time of spans that match, not counting ones nested in another match."""
    total = 0.0
    for name, p in tree.items():
        parts = name.split("/")
        if matches(parts[-1], p) and not any(matches(a, None) for a in parts[:-1]):
            total += p["total_s"]
    return total


def halo_group_s(tree, suffix):
    """Inclusive time of halo-category spans named *<suffix>, outermost only."""
    return _group_inclusive_s(
        tree, lambda leaf, p: leaf.endswith(suffix) and (p is None or p["category"] == "halo"))


def _median_or_zero(values):
    return stats.median(values) if values else 0.0


def per_layer(raw, program_metrics, program_events, bench_spans, probe):
    """(metrics, details) of a layers driver run."""
    nranks = raw["nranks"]
    traced = [b for b in raw["traced"] if not b["error"]]
    if not traced:
        raise ValueError("no traced batch completed")
    steps = sum(b["steps_attempted"] for b in traced)  # all ranks step together
    rank_steps = nranks * steps
    tree, child_total = _path_tree(program_metrics["paths"])

    def count(key):
        return sum(b["counts"][key] for b in traced)

    def per_rank_step_ms(seconds):
        return 1e3 * seconds / rank_steps

    m = {}
    step_samples = _timed_samples(traced)
    m["core.step_ms"] = stats.median(step_samples)
    for p in PHASES:
        name = f"step/{p}"
        m[f"core.{p}_ms"] = per_rank_step_ms(_self_s(tree, child_total, name)) if name in tree else 0.0

    kernel_paths = [n for n, p in tree.items() if p["category"] == "kernel"]
    for k in KERNELS:
        m[f"kxx.{k}_ms"] = per_rank_step_ms(sum(
            _self_s(tree, child_total, n) for n in kernel_paths if n.rsplit("/", 1)[-1] == k))
    m["kxx.dispatches_per_step"] = sum(tree[n]["count"] for n in kernel_paths) / steps
    lanes = count("lanes_active") + count("lanes_masked")
    m["kxx.pack_lane_util"] = count("lanes_active") / lanes if lanes else 0.0

    for metric, key in (("msgs", "halo_msgs"), ("bytes", "halo_bytes"), ("equiv_msgs", "halo_equiv"),
                        ("self_copies", "halo_self_copies"), ("skipped", "halo_skipped"),
                        ("subcycle_msgs", "subcycle_msgs")):
        m[f"halo.{metric}_per_step"] = count(key) / steps
    for metric, suffix in HALO_GROUPS.items():
        m[f"halo.{metric}_ms"] = per_rank_step_ms(halo_group_s(tree, suffix))
    m["halo.box_copy_ms"] = per_rank_step_ms(
        _group_inclusive_s(tree, lambda leaf, p: leaf.endswith("box_copy")))

    m["comm.msgs_per_step"] = count("comm_msgs") / steps
    m["comm.bytes_per_step"] = count("comm_bytes") / steps
    m["comm.allreduce_us"] = stats.median(raw["allreduce_us"])

    m["swsim.dma_mb_per_step"] = count("dma_bytes") / steps / 1e6
    m["swsim.dma_transfers_per_step"] = count("dma_transfers") / steps
    m["swsim.spawns_per_step"] = count("spawns") / steps
    m["swsim.ldm_high_water_kb"] = raw["ldm_high_water_bytes"] / 1024.0
    m["swsim.mpe_fallbacks_per_step"] = count("fallbacks") / steps

    ckpt = {}
    for ev in program_events:
        if ev.get("cat") == "resilience":
            ckpt.setdefault(ev["name"], []).append(ev["dur"] / 1e3)
    m["resilience.ckpt_write_ms"] = _median_or_zero(ckpt.get("checkpoint_write", []))
    m["resilience.ckpt_verify_ms"] = _median_or_zero(ckpt.get("checkpoint_verify", []))
    m["resilience.ckpt_restore_ms"] = _median_or_zero(ckpt.get("checkpoint_restore", []))
    m["resilience.ckpt_mb"] = _median_or_zero(
        [x / 1e6 for b in traced for x in b["ckpt_generation_bytes"]])
    writes = sum(a["count"] for a in program_metrics["kernels"] if a["name"] == "checkpoint_write")
    m["resilience.generations"] = writes / len(traced)

    tenants = [t for b in traced for t in b["tenants"]]
    lease_wall = sum(t["run_wall_s"] for t in tenants)
    m["farm.queue_wait_s"] = statistics.fmean([t["queue_wait_s"] for t in tenants]) if tenants else 0.0
    m["farm.lease_wall_s"] = lease_wall / len(tenants) if tenants else 0.0
    m["farm.admissions"] = sum(t["admissions"] for t in tenants) / len(traced)
    m["farm.preemptions"] = sum(t["preemptions"] for t in tenants) / len(traced)
    m["farm.member_sypd"] = _median_or_zero([t["sypd"] for t in tenants])
    if tenants and "step" in tree:
        # The checkpoint hook runs inside step(); it is lease overhead, not step loop.
        loop_s = tree["step"]["total_s"] - sum(
            p["total_s"] for n, p in tree.items()
            if n.count("/") == 1 and p["category"] == "resilience")
        m["farm.overhead_frac"] = 1.0 - loop_s / lease_wall
    else:
        m["farm.overhead_frac"] = 0.0

    setup = setup_breakdown(bench_spans)
    m["grid.build_ms"] = setup["grid.build"]
    m["decomp.plan_ms"] = setup["decomp.plan"]
    m["core.model_init_ms"] = setup["core.model_init"]
    m["decomp.imbalance_census"] = raw["census_imbalance"]

    untraced_p50 = stats.median(_timed_samples(raw["untraced"]))
    m["telemetry.overhead_frac"] = m["core.step_ms"] / untraced_p50 - 1.0
    m["host.stream_gbs"] = probe["stream_gbs"]

    details = {
        "core.step_ms": f"traced, median of n={len(step_samples)} samples",
        "telemetry.overhead_frac": f"traced p50 {m['core.step_ms']:.3f} ms / untraced p50 "
                                   f"{untraced_p50:.3f} ms - 1",
        "host.stream_gbs": f"host measurement, not a program metric: triad over 3 arrays of "
                           f"{probe['array_mb']:.0f} MiB each, last-level cache "
                           f"{probe['llc_mb']:.0f} MiB",
        "resilience.ckpt_write_ms": f"median of n={len(ckpt.get('checkpoint_write', []))} calls",
        "comm.allreduce_us": f"median of n={len(raw['allreduce_us'])} calls on a 4-rank world",
    }
    return m, details


def setup_breakdown(bench_spans):
    """Median over set-up repetitions of each set-up stage, in ms.

    A repetition's model construction runs on every rank (and for every farm
    member): it is timed from the first rank's start to the last rank's end.
    """
    stages = {"grid.build": [], "decomp.plan": [], "core.model_init": []}
    by_setup = {}
    for s in bench_spans:
        if s["name"] in ("grid.build", "decomp.plan"):
            stages[s["name"]].append(s["end"] - s["begin"])
        elif s["name"] == "core.model_init":
            lo, hi = by_setup.get(s["parent"], (s["begin"], s["end"]))
            by_setup[s["parent"]] = (min(lo, s["begin"]), max(hi, s["end"]))
    stages["core.model_init"] = [hi - lo for lo, hi in by_setup.values()]
    return {k: 1e3 * _median_or_zero(v) for k, v in stages.items()}


def bench_spans_from_trace(trace):
    """The benchmark's own spans (pid 1) of a Chrome trace, in seconds."""
    return [{"name": e["name"], "id": e["args"]["id"], "parent": e["args"]["parent"],
             "begin": e["ts"] / 1e6, "end": (e["ts"] + e["dur"]) / 1e6, "tid": e["tid"]}
            for e in trace["traceEvents"] if e.get("ph") == "X"]


def span_summary(bench_spans):
    """Per span name: count, total and self time (s) of the benchmark's spans."""
    self_s = stats.self_times(bench_spans)
    out = {}
    for s in bench_spans:
        row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["begin"]
        row["self_s"] += self_s[s["id"]]
    return out


def merged_trace(program_trace, bench_trace):
    """One Chrome trace: the program's telemetry spans (pid 0) and the benchmark's (pid 1)."""
    meta = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
            for pid, label in ((0, "program telemetry"), (1, "benchmark spans"))]
    return {"displayTimeUnit": "ms",
            "traceEvents": meta + program_trace["traceEvents"] + bench_trace["traceEvents"]}
