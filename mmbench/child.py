"""One measured workload pass, run in a fresh process by ``run.py``.

usage: python3 child.py --root ROOT --workload W --inputs DIR --work DIR
                        --trace 0|1 [--setup-only] --result FILE

The pass drives ``mmrec`` through ``mmrec.cli.main`` exactly as a user
would from the shell. ``--trace 0`` wraps only the once-per-phase calls the
end-to-end metrics need (``fit``, ``evaluate``, ``run_single``) plus the CLI
commands; ``--trace 1`` wraps every layer (see ``layers.py``).
``--setup-only`` stops the pass at the first ``fit`` or ``evaluate`` call,
so that a run can time its set-up more than once.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def commands(workload: str, inputs: str, work: str, info: dict) -> list[tuple[str, list[str]]]:
    if workload == "baby-graph":
        return [("train", ["train", "--config", os.path.join(inputs, "train.cfg"),
                           "--out", os.path.join(work, "train")])]
    if workload == "ci-mf-grid":
        return [("grid", ["grid", "--config", os.path.join(inputs, "grid.cfg"),
                          "--out", os.path.join(work, "grid"), "--jobs", "2"])]
    dataset = os.path.join(work, "dataset")
    return [
        ("preprocess", ["preprocess", "--interactions", os.path.join(inputs, "interactions.tsv"),
                        "--k", "5", "--split", "temporal_leave_last", "--ratios", "0.8,0.1,0.1",
                        "--seed", str(info["split_seed"]), "--out", dataset]),
        ("eval", ["eval", "--checkpoint", os.path.join(inputs, "checkpoint"), "--data", dataset,
                  "--split", "test", "--topk", info["topk"], "--out", os.path.join(work, "eval")]),
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import mmrec.cli

    import layers
    from tracing import SetupDone, Tracer, clock, write_spans

    with open(os.path.join(args.inputs, "inputs.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    tracer = Tracer(stop_at=frozenset(layers.SETUP_ENDS) if args.setup_only else frozenset())
    layers.install(tracer, traced=bool(args.trace))

    runs = []
    planned = commands(args.workload, args.inputs, args.work, info)
    jobs = max((int(argv[argv.index("--jobs") + 1]) for _, argv in planned if "--jobs" in argv), default=1)
    t0 = clock()
    try:
        for name, argv in planned:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.call(f"cli.{name}", mmrec.cli.main, argv)
            runs.append({"command": name, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    except SetupDone:
        pass
    t1 = clock()
    tracer.remove()

    result = {
        "commands": runs,
        "setup_s": (tracer.stopped_at or layers.first_start(tracer.spans, layers.SETUP_ENDS, t1)) - t0,
        "total_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **layers.phase_summary(tracer.spans),
    }
    if args.trace:
        result["layers"] = layers.layer_metrics(tracer, t0, t1, jobs)
        write_spans(os.path.join(args.work, "spans.tsv"), tracer.spans, t0)
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
