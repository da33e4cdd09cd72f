"""One benchmark run in a fresh interpreter: back-to-back CLI calls.

run.py starts this script with ``PYTHONPATH`` set to the checkout's
``src``. Each op writes its inputs, calls ``mslab.cli.main(argv)`` in
process (only that call is timed), checks the outputs exactly and
deletes the op's files. Before each call the garbage of earlier ops is
collected, as a fresh process per call would have none, and the
reference kernel of :mod:`calibrate` is timed before and after it.
The CLI's stdout status lines go to ``os.devnull``. The run stops after ``--seconds`` of timed calls, or
after exactly ``--ops`` ops, and writes its records as JSON to
``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
import checks
import inputs

ROOT = Path(__file__).resolve().parent.parent
SWEEP_COUNT = 50


def sweep_op(seed: int, op: int, prefix: str, budget: int):
    out = prefix + ".json"
    argv = ["sweep-nonexpansion", "--count", str(SWEEP_COUNT),
            "--max-n", "3", "--max-entry", "9", "--format", "json",
            "--out", out, "--seed", str(seed * 1_000_000 + op)]
    return argv, lambda rc: checks.check_sweep(out, rc, SWEEP_COUNT), {}


def lift_op(seed: int, op: int, prefix: str, budget: int):
    base = prefix + ".base.json"
    out = prefix + ".h.json"
    inputs.write_space(base, inputs.lift_base(seed, op))
    argv = ["hyperspace", "--input", base, "--out", out]
    return argv, lambda rc: checks.check_lift(base, out, rc), {}


def solve_op(seed: int, op: int, prefix: str, budget: int):
    a, b = inputs.solve_pair(seed, op)
    a_path = prefix + ".a.json"
    b_path = prefix + ".b.json"
    out = prefix + ".gh.json"
    inputs.write_space(a_path, a)
    inputs.write_space(b_path, b)
    argv = ["gh", "--a", a_path, "--b", b_path, "--format", "json",
            "--out", out, "--node-budget", str(budget)]
    info = {"candidates": inputs.candidate_count(a, b)}
    return (argv, lambda rc: checks.check_solve(a_path, b_path, out, rc),
            info)


WORKLOADS = {"sweep": sweep_op, "lift": lift_op, "solve": solve_op}


def call(main, argv) -> tuple[int | None, float, str | None]:
    """(exit code, seconds, error) of one in-process CLI call."""
    start = time.perf_counter()
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed op, not a dead run
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, None


def run(args) -> dict:
    import mslab
    import mslab.cli

    src = (ROOT / "src").resolve()
    if src not in Path(mslab.__file__).resolve().parents:
        raise SystemExit(f"mslab imported from {mslab.__file__}, not {src}")
    tracer = None
    main = mslab.cli.main
    if args.traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        main = tracer.wrap("cli", main)
    make = WORKLOADS[args.workload]
    records = []
    timed = 0.0
    op = 0
    with open(os.devnull, "w") as devnull:
        while (timed < args.seconds) if args.ops is None else (op < args.ops):
            prefix = os.path.join(args.work_dir, f"op{op:05d}")
            argv, check, info = make(args.seed, op, prefix, args.node_budget)
            gc.collect()
            before = calibrate.speed()
            with contextlib.redirect_stdout(devnull):
                rc, seconds, problem = call(main, argv)
            speed = (before + calibrate.speed()) / 2
            timed += seconds
            answer = None
            if problem is None:
                try:
                    answer = check(rc)
                except Exception as exc:  # malformed output fails the op
                    problem = f"{type(exc).__name__}: {exc}"
            for path in glob.glob(glob.escape(prefix) + ".*"):
                os.unlink(path)
            records.append({"op": op, "rc": rc, "s": seconds, "speed": speed,
                            "answer": answer, "problem": problem, **info})
            op += 1
    result = {
        "ops": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--node-budget", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--traced", action="store_true")
    stop = parser.add_mutually_exclusive_group(required=True)
    stop.add_argument("--seconds", type=float)
    stop.add_argument("--ops", type=int)
    args = parser.parse_args()
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
