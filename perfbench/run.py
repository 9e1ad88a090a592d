"""fastpoint benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {infer,infer-dense,train} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; it imports ``fastpoint`` from ``src/``. With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics of a traced run. A full report goes to
``perfbench/out/`` and the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("anchors", "autodiff", "config", "evalkit", "geometry", "losses", "nn",
           "pipeline", "postprocess", "refiner_features", "synthetic", "train", "voxels")
SETUP_CHILDREN = 2          # extra set-ups, each in a fresh process, for setup_s
# glibc malloc moves its mmap threshold as large blocks are freed, so a run
# lands in one of two states: with or without ~3,400 page faults per toy
# frame (about 20 % of frame time), depending on allocation history. Pinning
# the thresholds keeps every run in the fault-free state. 32 MiB is the
# largest threshold glibc accepts and holds the encoder's 31.5 MB temporaries.
MALLOC_MMAP_THRESHOLD = 32 * 1024 * 1024
MALLOC_TRIM_THRESHOLD = 512 * 1024 * 1024


def import_fastpoint() -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        mods = {m: importlib.import_module(f"fastpoint.{m}") for m in MODULES}
    except ImportError as e:
        raise SystemExit(f"error: cannot import fastpoint from {src}: {e}")
    if not Path(mods["nn"].__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: fastpoint imported from {mods['nn'].__file__}, not {src}")
    return mods


def pin_malloc() -> dict:
    """Fix glibc's mmap and trim thresholds (mallopt), turning off their
    dynamic adjustment. Returns the settings applied, empty without glibc."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return {}
    m_trim_threshold, m_mmap_threshold = -1, -3
    if not (mallopt(m_mmap_threshold, MALLOC_MMAP_THRESHOLD)
            and mallopt(m_trim_threshold, MALLOC_TRIM_THRESHOLD)):
        raise SystemExit("error: mallopt rejected the benchmark's malloc thresholds")
    return {"mmap_threshold": MALLOC_MMAP_THRESHOLD, "trim_threshold": MALLOC_TRIM_THRESHOLD}


def environment(malloc: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "blas" in line.lower()}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "malloc": malloc}


def percentiles(samples: list) -> dict:
    """Median, p90 and the highest whole percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n == 0:              # every op failed; `correct` is false
        return {"n": 0, "p50": 0.0, "p90": 0.0}
    out = {"n": n, "p50": float(np.percentile(samples, 50)),
           "p90": float(np.percentile(samples, 90))}
    if n > 10:
        tail = math.floor(100 * (1 - 10 / n))
        out.update(tail_pct=tail, tail=float(np.percentile(samples, tail)))
    return out


def run_child_setups(args) -> list:
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise SystemExit(f"error: set-up in a fresh process failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(wl, seconds: float, tracer) -> tuple:
    """Closed loop until `seconds` of op time have passed and the round is whole.

    In a traced run, rounds alternate traced and untraced, so the untraced
    ones give the tracing overhead under the same conditions.
    """
    ops, results, busy, i = [], {}, 0.0, 0
    while busy < seconds or i % wl.OPS_PER_ROUND:
        traced = tracer is not None and (i // wl.OPS_PER_ROUND) % 2 == 0
        t0 = time.perf_counter()
        try:
            with tracer.op(i) if traced else nullcontext():
                out, error = wl.op(i), None
        except Exception as e:  # a failed op is counted, the run goes on
            out, error = None, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        busy += dt
        problems = [error] if error else wl.check(i, out)
        if wl.keep(i) and not problems:
            results[i] = out
        ops.append({"i": i, "s": dt, "frames": wl.frames_in(i), "traced": traced,
                    "problems": problems})
        i += 1
    return ops, results


def frame_metrics(wl, ops, setups) -> tuple:
    ops = [o for o in ops if not o["traced"]]
    summary = wl.summary(ops)
    pct = percentiles(summary["frame_ms"])
    busy = sum(o["s"] for o in ops)
    return {
        "setup_s": statistics.median(setups),
        "frame_ms_p50": pct["p50"],
        "frame_ms_p90": pct["p90"],
        "frames_per_s": sum(o["frames"] for o in ops) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, pct, summary


def traced_metrics(wl, ops, tracer) -> dict:
    """Per-layer metrics of the traced rounds, plus the tracing overhead:
    traced minus untraced median time per frame."""
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops if not o["traced"]]

    def per_frame_ms(group):
        rounds = {}
        for o in group:
            r = rounds.setdefault(o["i"] // wl.OPS_PER_ROUND, [0.0, 0])
            r[0] += o["s"] * 1e3
            r[1] += o["frames"]
        return statistics.median(ms / n for ms, n in rounds.values()) if rounds else 0.0

    frames = sum(o["frames"] for o in traced)
    m = tracer.layer_metrics(frames)
    m.update(tracer.input_shares())
    m.update(wl.summary(untraced)["phases"])
    on, off = per_frame_ms(traced), per_frame_ms(untraced)
    m["trace.overhead_ms"] = on - off
    m["trace.overhead_share"] = on / off - 1 if off else 0.0
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for setup_s)")
    args = ap.parse_args(argv)
    malloc = pin_malloc()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        ap.error(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    fp = import_fastpoint()
    from tracer import Tracer
    from workloads import WORKLOADS, BenchmarkInputError

    try:
        if args.setup_only:
            print(json.dumps({"setup_s": WORKLOADS[args.workload](fp, args.seed).setup_s}))
            return 0
        setups = [] if args.trace else run_child_setups(args)
        wl = WORKLOADS[args.workload](fp, args.seed)
    except BenchmarkInputError as e:
        raise SystemExit(f"error: {e}")
    setups.append(wl.setup_s)

    tracer = Tracer(fp) if args.trace else None
    before = resource.getrusage(resource.RUSAGE_SELF)
    ops, results = measure(wl, args.seconds, tracer)
    after = resource.getrusage(resource.RUSAGE_SELF)
    e2e, pct, summary = frame_metrics(wl, ops, setups)
    quality, quality_problems = wl.quality(results)
    probe_error = None
    if tracer is None:
        # input shares come from one traced probe of round 0, outside the timed loop
        probe = Tracer(fp)
        try:
            for i in wl.PROBE_OPS:
                with probe.op(i):
                    wl.op(i)
        except Exception as e:  # op 0 failed in the loop too; shares stay partial
            probe_error = f"{type(e).__name__}: {e}"
        shares = probe.input_shares()
        metrics = e2e
    else:
        metrics = traced_metrics(wl, ops, tracer)
        shares = {k: metrics[k] for k in tracer.input_shares()}

    failed = [o for o in ops if o["problems"]]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    result = {
        "correct": not failed and not quality_problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(malloc),
        "setup_s_samples": setups, "frame_ms": pct, "phases": summary["phases"],
        "op_s": [o["s"] for o in ops], "frame_ms_samples": summary["frame_ms"],
        "end_to_end": e2e, "fail_rate": len(failed) / len(ops),
        "rusage_per_op": {k: (getattr(after, k) - getattr(before, k)) / len(ops)
                          for k in ("ru_utime", "ru_stime", "ru_minflt", "ru_majflt",
                                    "ru_nvcsw", "ru_nivcsw")},
        "failures": [{"op": o["i"], "problems": o["problems"][:3]} for o in failed[:20]],
        "quality": quality, "quality_problems": quality_problems,
        "input_shares": shares, "probe_error": probe_error, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        report["spans"] = tracer.span_table()
        tracer.write_spans(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {OUT / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
