#!/usr/bin/env python3
"""LICOMK++ benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload ocean-1rank --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the model
libraries and the driver into .bench_build/perfbench ($CARGO_TARGET_DIR, when
set, replaces .bench_build). --trace 0 runs the workload untraced and prints
the end-to-end metrics; --trace 1 runs it traced and prints the per-layer
metrics, writing a Chrome trace and a per-layer summary under .bench_out/.
The last line of stdout is the JSON result; everything else is for people.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

import inputs  # noqa: E402
import report  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build():
    """Configure (once) and build the driver; returns its path or exits non-zero."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
            shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
            (bdir / "CMakeCache.txt").unlink(missing_ok=True)
            fail(f"configure failed; see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(bdir), "--target", "perfbench_driver", "-j", jobs]
    if run_logged(cmd, log, BUILD_TIMEOUT_S) != 0:
        fail(f"build failed; see {log}")
    return bdir / "perfbench_driver"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_driver(driver, mode, out_dir, args):
    cmd = [str(driver), mode, str(out_dir)] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver {mode} timed out after {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"driver {mode} exited with {proc.returncode}")
    with open(out_dir / f"raw_{mode}.json") as f:
        return json.load(f)


def load(path):
    with open(path) as f:
        return json.load(f)


def print_metrics(title, metrics, units, details):
    print(title)
    for name, value in metrics.items():
        note = f"  [{details[name]}]" if name in details else ""
        print(f"  {name:32s} {value:14.6g} {units[name]}{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()
    if a.seconds <= 0:
        fail("--seconds must be positive")

    driver = build()
    out_dir = ROOT / ".bench_out" / f"{a.workload}-seed{a.seed}-trace{a.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ckpt_root = str(out_dir / "checkpoints")
    print(f"workload {a.workload}, seed {a.seed}: inputs {inputs.inputs(a.workload, a.seed)}")

    if a.trace == 0:
        args = inputs.driver_args(a.workload, a.seed, a.seconds, 0.0, ckpt_root)
        raw = run_driver(driver, "e2e", out_dir, args)
        metrics, details, attempted, failed, problems = report.end_to_end(raw)
        units = report.END_TO_END
        print_metrics("end-to-end (untraced run)", metrics, units, details)
    else:
        # Half untraced (the baseline of telemetry.overhead_frac and of the
        # CRC comparison), half traced.
        args = inputs.driver_args(a.workload, a.seed, a.seconds / 2, a.seconds / 2, ckpt_root)
        raw = run_driver(driver, "layers", out_dir, args)
        probe = run_driver(driver, "probe", out_dir, [])
        program_metrics = load(out_dir / "program_metrics.json")
        program_trace = load(out_dir / "program_trace.json")
        bench_trace = load(out_dir / "bench_trace.json")
        bench_spans = report.bench_spans_from_trace(bench_trace)
        metrics, details = report.per_layer(raw, program_metrics, program_trace["traceEvents"],
                                            bench_spans, probe)
        attempted, failed, problems = report.operations(raw)
        units = report.PER_LAYER
        with open(out_dir / "trace.json", "w") as f:
            json.dump(report.merged_trace(program_trace, bench_trace), f)
        summary = {"workload": a.workload, "seed": a.seed,
                   "layers": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
                   "benchmark_spans": report.span_summary(bench_spans)}
        with open(out_dir / "summary.json", "w") as f:
            json.dump(summary, f, indent=1)
        for name in ("program_trace.json", "bench_trace.json"):
            (out_dir / name).unlink()
        print_metrics("per-layer (traced run)", metrics, units, details)
        print(f"  trace: {out_dir / 'trace.json'}  summary: {out_dir / 'summary.json'}")

    for p in problems:
        print(f"  CHECK FAILED: {p}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
