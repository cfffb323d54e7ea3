"""Benchmark for sarberg: three closed-loop workloads, untraced or traced.

    python3 perfbench/run.py --workload cnn_train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One client runs one workload in this process: a set-up (repeated, timed as
`setup_s`), then iterations of the same work until `--seconds` would be
exceeded by the next one, each followed by output checks. The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics untraced, the per-layer metrics with
`--trace 1`). A fuller result file with provenance, the span summary and the
tracing overhead goes to perfbench/out/. `--workload all` runs every
workload untraced and then traced, each in its own process, and prints the
tracing overhead. The exit code is nonzero if any output check fails.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads: one thread keeps runs steady on a
# shared machine and makes float results independent of the thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("cnn_train", "gbm_oof", "cli_pipeline")
# The set-up runs at least SETUP_REPS times and until SETUP_MIN_S have
# passed, so that a set-up of a few tenths of a second still gets a steady
# median.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
# Later performance claims must also hold on this seed, which no tuning used.
HELD_OUT_SEED = 104729

E2E_UNITS = {
    "setup_s": "s",
    "scenes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sarberg").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, sizes: dict) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "size": args.size,
        "sizes": sizes,
        "seconds": args.seconds,
        "setup_min_reps": SETUP_REPS,
        "setup_min_s": SETUP_MIN_S,
        "trace": args.trace,
    }


def _result_path(workload: str, size: str, seed: int, traced: int) -> Path:
    return OUT / f"{workload}_{size}_seed{seed}_trace{traced}.json"


def run_workload(args) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    from spans import Tracer, compute_per_layer
    from workloads import SIZES, WORKLOADS, Checks

    workdir = OUT / f"work_{args.workload}_{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.size, workdir)
    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    checks = Checks()
    setup_s: list[float] = []
    units: list[float] = []
    iter_s: list[float] = []
    quality = None
    try:
        if tracer:
            tracer.install()
            wl.span = tracer.span
        while len(setup_s) < SETUP_REPS or sum(setup_s) < SETUP_MIN_S:
            gc.collect()
            t0 = time.perf_counter()
            with span("setup"):
                state = wl.setup()
            setup_s.append(time.perf_counter() - t0)

        first = None
        while True:
            # Start every iteration from the same heap: the previous one's
            # garbage would otherwise be collected on this one's clock.
            gc.collect()
            t0 = time.perf_counter()
            with span("iteration"):
                out = wl.iterate(state)
            dt = time.perf_counter() - t0
            iter_s.append(dt)
            units.append(out.units)
            wl.check(out, checks)
            if first is None:
                first = out.fingerprint
            else:
                checks.expect(out.fingerprint == first, "outputs repeat exactly across iterations")
            quality = out.quality()
            if sum(iter_s) + dt > args.seconds:
                break
    except Exception as e:  # a crash is a failed operation; report and exit nonzero
        traceback.print_exc()
        checks.expect(False, f"workload raised {type(e).__name__}: {e}")
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {}
    if units:
        values = {
            "setup_s": statistics.median(setup_s),
            # Throughput over the whole timed phase, which averages the
            # shared machine's drift better than any one iteration does.
            "scenes_per_s": sum(units) / sum(iter_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - len(checks.failures) / max(checks.attempted, 1),
        }
        e2e = {k: {"value": float(v), "unit": E2E_UNITS[k]} for k, v in values.items()}

    record = {
        "provenance": provenance(args, SIZES[args.workload][args.size]),
        "end_to_end": e2e,
        "quality": dict(zip(("logloss", "accuracy", "brier"), quality)) if quality else None,
        "iterations": len(iter_s),
        "iteration_s": iter_s,
        "setup_runs_s": setup_s,
        "checks_attempted": checks.attempted,
        "check_failures": checks.failures,
    }
    metrics = e2e
    if tracer and units:
        per_layer, fired, summary = compute_per_layer(tracer, args.workload, len(iter_s))
        for name, ok in fired.items():
            checks.expect(ok, f"per-layer source of {name} ran on {args.workload}")
        silent = [name for name, ok in fired.items() if not ok]
        record.update(per_layer=per_layer, silent_layers=silent, span_summary=summary,
                      check_failures=checks.failures, checks_attempted=checks.attempted)
        untraced = _result_path(args.workload, args.size, args.seed, 0)
        if untraced.is_file():
            base = json.loads(untraced.read_text()).get("end_to_end", {})
            record["tracing_overhead"] = {
                k: e2e[k]["value"] - base[k]["value"] for k in e2e if k in base
            }
        tracer.write(OUT / f"spans_{args.workload}_{args.size}_seed{args.seed}.json")
        metrics = per_layer
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    return result, record


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    status = 0
    overhead = {}
    for workload in WORKLOAD_NAMES:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
        traced_file = _result_path(workload, args.size, args.seed, 1)
        if traced_file.is_file():
            overhead[workload] = json.loads(traced_file.read_text()).get("tracing_overhead", {})
    print("== tracing overhead (traced minus untraced)")
    for workload, diffs in overhead.items():
        for name, diff in diffs.items():
            print(f"  {workload:<13} {name:<18} {diff:>+12.6g} {E2E_UNITS[name]}")
    print(json.dumps({"correct": status == 0, "tracing_overhead": overhead}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the self-test only")
    args = parser.parse_args(argv)

    if not (SRC / "sarberg" / "__init__.py").is_file():
        print(f"perfbench: no sarberg sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    result, record = run_workload(args)
    path = _result_path(args.workload, args.size, args.seed, args.trace)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"# {args.workload} seed {args.seed}, {record['iterations']} iterations, "
          f"result file {path.relative_to(ROOT)}")
    print_table("end-to-end" + (" (traced)" if args.trace else ""), record["end_to_end"])
    if record["quality"]:
        print("== held-out quality (recorded, not a bounded metric)")
        for name, value in record["quality"].items():
            print(f"  {name:<44} {value:>14.6g}")
    if args.trace and "per_layer" in record:
        print_table("per-layer", record["per_layer"])
        top = sorted(record["span_summary"].items(), key=lambda kv: -kv[1]["self_ms"])[:15]
        print("== self time, top spans (timed phase)")
        for name, row in top:
            print(f"  {name:<44} {row['self_ms']:>12.1f} ms self  {row['count']:>7} calls")
        for name, diff in record.get("tracing_overhead", {}).items():
            print(f"  overhead {name:<35} {diff:>+14.6g} {E2E_UNITS[name]}")
    for failure in record["check_failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
