"""mmrec benchmark: seeded workloads, end-to-end metrics, output checks.

usage: python3 mmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``mmrec`` from
``src/`` and writes only under ``.mmbench-work/``. Inputs are generated
from the seed (``gen.py``) and cached per workload and seed. Each measured
pass runs in a fresh process (``child.py``). A run makes full passes until
``--seconds`` of passes have been measured (at least one), then, where the
set-up phase is short next to a pass, one set-up probe: a fresh process that
stops at the first ``fit`` or ``evaluate`` call. A traced run makes one
traced pass and one untraced pass instead, the untraced one being the
reference for the tracing overhead. Every pass is checked (``checks.py``);
a failed check makes the run exit 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced pass with ``--trace 1``.
Earlier lines give the environment, a readable table and the check log.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".mmbench-work")
WORKLOADS = ("baby-graph", "ci-mf-grid", "ingest-eval")
DEADLINE_S = 170.0  # every run must end within 180 s
KEEP_INPUT_SEEDS = 3
# A short set-up phase catches the machine's speed at one moment, so a run
# times it once more in a set-up probe when set-up is under this share of a
# pass. A longer set-up averages over enough time, and probing it would not
# fit the run's time budget.
PROBE_SHARE = 0.25

E2E_UNITS = {
    "setup_s": "s", "total_s": "s", "eval_users_per_s": "users/s", "peak_rss_mb": "MB",
}


def die(message: str, code: int = 2) -> None:
    print(f"mmbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(info: dict) -> str:
    """Fingerprint of the program under test and of its generated inputs,
    to key byte-identity records."""
    h = hashlib.sha256(json.dumps(info, sort_keys=True).encode())
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mmrec", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS would use, read through ctypes."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(), "seed": seed,
    }


def ensure_inputs(workload: str, seed: int) -> str:
    """Generated inputs for (workload, seed), made once and cached."""
    from gen import GENERATOR_VERSION

    base = os.path.join(WORK, "inputs")
    path = os.path.join(base, f"{workload}-{seed}")
    marker = os.path.join(path, "inputs.json")
    if os.path.exists(marker):
        with open(marker, encoding="utf-8") as fh:
            if json.load(fh).get("version") == GENERATOR_VERSION:
                os.utime(marker)
                return path
    shutil.rmtree(path, ignore_errors=True)
    tmp = path + ".partial"
    shutil.rmtree(tmp, ignore_errors=True)
    # a separate process, so generation never touches the measured processes
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", tmp],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    os.replace(tmp, path)
    cached = sorted(glob.glob(os.path.join(base, f"{workload}-*", "inputs.json")), key=os.path.getmtime)
    for old in cached[:-KEEP_INPUT_SEEDS]:
        shutil.rmtree(os.path.dirname(old), ignore_errors=True)
    return path


def run_pass(workload: str, inputs: str, work: str, trace: int, deadline: float,
             setup_only: bool = False) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = os.path.join(work, "result.json")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another pass")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT, "--workload", workload,
         "--inputs", inputs, "--work", work, "--trace", str(trace),
         "--result", result, *(["--setup-only"] if setup_only else [])],
        check=True, timeout=remaining,
    )
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "mmrec", "__init__.py")):
        die(f"no mmrec sources under {os.path.join(ROOT, 'src')}; run from a source checkout")

    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, HERE)
    import checks

    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    started = time.monotonic()
    inputs = ensure_inputs(args.workload, args.seed)
    wall = {"inputs": time.monotonic() - started}
    with open(os.path.join(inputs, "inputs.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    print("inputs " + json.dumps(info, sort_keys=True))

    stem = f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    run_dir = os.path.join(WORK, "runs", stem)
    digests = os.path.join(WORK, "digests", f"{args.workload}-{args.seed}-{source_digest(info)}.json")
    log: list[str] = []
    attempted = failed = 0
    wall["passes"] = wall["checks"] = 0.0
    passes: list[dict] = []
    setups: list[float] = []
    traced: dict = {}

    def measured_pass(trace: int) -> dict:
        nonlocal attempted, failed
        work = os.path.join(run_dir, f"pass{len(passes)}-t{trace}")
        started = time.monotonic()
        p = run_pass(args.workload, inputs, work, trace, deadline)
        wall["passes"] += time.monotonic() - started
        if trace:
            shutil.copy(os.path.join(work, "spans.tsv"), os.path.join(results, f"{stem}-spans.tsv"))
        started = time.monotonic()
        verdict = checks.check_pass(args.workload, inputs, work, p, info, digests)
        wall["checks"] += time.monotonic() - started
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        log.extend(verdict["log"])
        return p

    try:
        # a traced run makes one traced pass, then one untraced pass: the
        # reference for the tracing overhead and for the throughput figure
        if args.trace:
            traced = measured_pass(1)
        while not passes or (sum(p["total_s"] for p in passes) < args.seconds and not args.trace):
            passes.append(measured_pass(0))
            setups.append(passes[-1]["setup_s"])
        if not args.trace and setups[0] < PROBE_SHARE * passes[0]["total_s"]:
            started = time.monotonic()
            probe = run_pass(args.workload, inputs, os.path.join(run_dir, "probe"), 0, deadline, True)
            setups.append(probe["setup_s"])
            wall["probe"] = time.monotonic() - started
    except (subprocess.SubprocessError, TimeoutError, OSError) as exc:
        die(f"{args.workload} pass did not complete: {exc}", 1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    train_s = sum(p["train_s"] for p in passes)
    e2e = {
        "setup_s": statistics.median(setups),
        "total_s": statistics.median(p["total_s"] for p in passes),
        # a pass that evaluated nothing has failed a check already
        "eval_users_per_s": statistics.median(p["eval_users"] / (p["eval_s"] or math.inf) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    extra = {
        "train_pairs_per_s": sum(p["train_pairs"] for p in passes) / train_s if train_s else None,
        "failed_ratio": failed / attempted if attempted else None,
    }
    print(f"workload {args.workload}: {len(passes)} pass(es), {len(setups)} set-up samples, "
          f"trace {args.trace}")
    for name, value in e2e.items():
        print(f"  {name:<20} {fmt(value):>14} {E2E_UNITS[name]}")
    print(f"  {'train_pairs_per_s':<20} {fmt(extra['train_pairs_per_s']) if train_s else 'n/a':>14} pairs/s")
    print(f"  {'failed_ratio':<20} {fmt(extra['failed_ratio']):>14} ratio ({failed} of {attempted})")
    for line in log:
        print("  check " + line)
    print("wall " + " ".join(f"{k} {v:.2f} s" for k, v in wall.items()))

    if args.trace:
        layer = traced["layers"]
        metrics = dict(layer["metrics"])
        # untraced, as the tracer's per-word wrappers slow sampling down
        metrics["trainer.pairs_per_s"] = extra["train_pairs_per_s"] or 0.0
        metrics["trace.untraced_total_s"] = e2e["total_s"]
        metrics["trace.overhead_s"] = metrics["trace.total_s"] - metrics["trace.untraced_total_s"]
        checks.print_layer_table(metrics, layer)
        out_metrics = {k: {"value": float(v), "unit": checks.layer_unit(k)} for k, v in metrics.items()}
    else:
        out_metrics = {k: {"value": float(v), "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    summary = {"env": env, "inputs": info, "e2e": e2e, **extra, "attempted": attempted, "failed": failed,
               "checks": log, "trace": args.trace, "metrics": out_metrics, "time": time.time()}
    with open(os.path.join(results, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
