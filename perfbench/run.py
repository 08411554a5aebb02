#!/usr/bin/env python3
"""stoplab benchmark: one workload per process, a closed loop with one operation in flight.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gallery --seed 20240611 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, each in a fresh process

The run sets up the workload's inputs, then runs passes of operations until
the next pass would end after ``--seconds`` (at least two passes), checks
every operation's output and prints the metrics named in BENCHMARK.json.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object; a detailed result (provenance, every
operation, output digests) and, when traced, the spans go to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20240611  # the gallery's stored seeds are DEFAULT_SEED + i
SETUP_SAMPLES = 5        # fresh-process set-ups per run; setup_s is their median
TAIL_PERCENTILE = 90
MIN_PASSES = 2
COUNT_UNITS = ("count", "B")  # per-layer units that must repeat exactly between passes


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: reduced grids and path counts, for the smoke test")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the detailed result, spans and temporary files")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def blas_threads():
    """OpenBLAS threads: the CPUs this process may use, or fewer if already capped."""
    cpus = len(os.sched_getaffinity(0))
    preset = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return min(cpus, int(preset)) if preset.isdigit() and int(preset) > 0 else cpus


# ---------------------------------------------------------------------------
# provenance


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _src_lines():
    files = sorted((ROOT / "src" / "stoplab").glob("*.py"))
    counts = {f.name: f.read_bytes().count(b"\n") for f in files}
    return {"files": counts, "total": sum(counts.values())}


def provenance(args):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "openblas": {"name": blas.get("name"), "version": blas.get("version"),
                     "config": blas.get("openblas configuration")},
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "size": args.size,
        "src_stoplab_lines": _src_lines(),
    }


# ---------------------------------------------------------------------------
# set-up and the measured loop


def setup(args, tmp):
    """Import stoplab and build the workload's inputs; returns (seconds, workload, recorder)."""
    t0 = time.perf_counter()
    import stoplab
    import workloads

    if not Path(stoplab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported stoplab from {stoplab.__file__}, not from src/")
    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        recorder.install()
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed, tmp)
    return time.perf_counter() - t0, workload, recorder


def setup_in_fresh_processes(args, count):
    """Set-up seconds measured in ``count`` fresh interpreters, one after another."""
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
            str(args.seed), "--size", args.size, "--out", args.out, "--setup-only"]
    samples = []
    for _ in range(count):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_passes(args, workload, recorder):
    """Run passes until the next would end after ``args.seconds``; at least MIN_PASSES."""
    import workloads

    op_ids = itertools.count()
    passes = []  # dicts: seconds, traced, ops (OpResult), op_ids
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - started
            + statistics.median(p["seconds"] for p in passes) <= args.seconds):
        traced = recorder is not None and len(passes) % 2 == 1
        if recorder is not None:
            (recorder.install if traced else recorder.uninstall)()
        ids = []

        def run_op(label, fn, *fn_args):
            ids.append(next(op_ids))
            call = fn
            if traced:
                recorder.op = ids[-1]
                call = lambda *a: recorder.root(f"op.{label}", fn, *a)  # noqa: E731
            return workloads.timed(label, call, *fn_args)

        ops = workload.run_pass(len(passes), run_op)
        passes.append({"seconds": sum(op.seconds for op in ops), "traced": traced,
                       "ops": ops, "op_ids": ids})
    if recorder is not None:
        recorder.uninstall()
    return passes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(setup_samples, passes, report):
    pool = [op.seconds for p in passes for op in p["ops"]]
    tail = statistics.quantiles(pool, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    attempted = len(pool)
    failed = sum(1 for p in passes for op in p["ops"] if op.failures)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(p["seconds"] for p in passes),
        "op_s_p50": statistics.median(pool),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bridge_c_relerr": report["bridge_c_relerr"],
        "fail_ratio": failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh-process set-ups",
        "pass_s": f"median of {len(passes)} passes",
        "op_s_p50": f"n={attempted} operations",
        "op_s_tail": f"p{TAIL_PERCENTILE} of n={attempted}, "
                     f"{sum(1 for s in pool if s > tail)} beyond",
        "fail_ratio": f"{failed}/{attempted}",
    }
    return metrics, notes, attempted, failed


def _pass_layers(calls, secs, counts, export_bytes):
    """Per-layer values of one pass, keyed by the names in BENCHMARK.json."""
    values = {
        "pipeline.export.bytes": export_bytes,
        "fields.evals": calls["fields.row"] + calls["fields.__call__"],
        "fields.evals.s": secs["fields.row"] + secs["fields.__call__"],
        "checks.s": sum(v for k, v in secs.items() if k.startswith("checks.")),
        "solver.iterations": sum(counts["solver.iterations"]),
        "solver.iterations_per_step.max": max(counts["solver.iterations_per_step.max"],
                                              default=0),
        "simulate.path_steps": sum(counts["simulate.path_steps"]),
        "simulate.poisoned": sum(counts["simulate.poisoned"]),
    }
    for suffix, source in ((".self_s", secs), (".s", secs), (".calls", calls)):
        for span_name in set(source):
            values.setdefault(span_name + suffix, source[span_name])
    return values


def per_layer(declared, passes, recorder):
    import spans

    traced = [p for p in passes if p["traced"]]
    per_pass = []
    for p in traced:
        calls, secs, counts = spans.self_times(recorder.spans, set(p["op_ids"]))
        per_pass.append(_pass_layers(calls, secs, counts,
                                     sum(op.export_bytes for op in p["ops"])))
    _, setup_secs, _ = spans.self_times(recorder.spans, {spans.SETUP_OP})
    untraced = [p["seconds"] for p in passes if not p["traced"]]
    metrics, varying = {}, []
    for m in declared:
        name = m["name"]
        if name == "config.builtin_examples.s":
            metrics[name] = setup_secs["config.builtin_examples"]
        elif name == "trace.overhead":
            metrics[name] = (statistics.median(p["seconds"] for p in traced)
                             / statistics.median(untraced))
        else:
            values = [v.get(name, 0) for v in per_pass]
            if m["unit"] in COUNT_UNITS:
                metrics[name] = statistics.median_low(values)
                if len(set(values)) > 1:
                    varying.append(name)
            else:
                metrics[name] = statistics.median(values)
    return metrics, varying


# ---------------------------------------------------------------------------


def run_all(args, names):
    """Run every workload in its own fresh process; the last line holds all results."""
    results = {}
    for name in names:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size, "--out", args.out]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    if not (ROOT / "src" / "stoplab" / "__init__.py").is_file():
        print(f"error: no stoplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    # before numpy is imported: OpenBLAS reads its thread count once, at load
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.makedirs(args.out, exist_ok=True)
    if args.workload == "all":
        return run_all(args, [w["name"] for w in bench["workloads"]])

    tmp = tempfile.mkdtemp(prefix="tmp-", dir=args.out)
    try:
        if args.setup_only:
            seconds, _, _ = setup(args, tmp)
            print(json.dumps({"setup_s": seconds}))
            return 0
        samples = [] if args.trace else setup_in_fresh_processes(args, SETUP_SAMPLES - 1)
        seconds, workload, recorder = setup(args, tmp)
        samples.append(seconds)
        passes = run_passes(args, workload, recorder)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = workload.report()
    e2e, notes, attempted, failed = end_to_end(samples, passes, report)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values, varying = per_layer(declared, passes, recorder)
    else:
        values, varying = e2e, []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload,
        "provenance": provenance(args),
        "end_to_end": e2e,
        "notes": notes,
        "metrics": metrics,
        "counts_not_repeating": varying,
        "report": report,
        "passes": [{"seconds": p["seconds"], "traced": p["traced"],
                    "ops": [vars(op) for op in p["ops"]]} for p in passes],
    }
    detail_path = Path(args.out) / f"result-{stem}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if recorder is not None:
        recorder.write(Path(args.out) / f"spans-{stem}.jsonl.gz")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {len(passes)}  trace {args.trace}")
    shown = dict(metrics)
    if not args.trace:
        shown["fail_ratio"] = {"value": e2e["fail_ratio"], "unit": "ratio"}
    for name, m in shown.items():
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']:6s} {notes.get(name, '')}")
    for p in passes:
        for op in p["ops"]:
            for failure in op.failures:
                print(f"  FAILED {op.label}: {failure}")
    for name in varying:
        print(f"  count {name} differs between traced passes")
    print(f"detail: {detail_path}")
    print(json.dumps({"correct": failed == 0 and not varying, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
