"""Benchmark of the mslab command line on three workloads.

Run from the root of a checkout; it needs ``src/mslab`` and nothing
installed::

    python3 perfbench/run.py --node-budget 50000 --workload solve \
        --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --node-budget 50000 --workload all --seed 1

Workloads (closed loop, one client; each op is one in-process call of
``mslab.cli.main`` in a fresh child interpreter, and no input repeats
within a run):

* ``sweep``: ``sweep-nonexpansion --count 50 --max-n 3`` with the next
  seed on every op. Hundreds of tiny solves per op, so gh set-up, the
  experiment driver, ``random_space`` and small hyperspaces dominate.
* ``lift``: ``hyperspace`` of a distinct seeded 6-point integer space
  (63 members). Re-validating the lifted matrix dominates; no gh.
* ``solve``: ``gh`` on distinct lifted 4-point pairs (15 x 15),
  alternating general-position and integer-valued pairs, with the node
  budget given by ``--node-budget``. Budget-bound ops exit 3.

``--trace 0`` runs the loop for ``--seconds`` of timed calls and prints
the end-to-end metrics. ``--trace 1`` runs a fixed number of ops, set
by the workload and ``--seconds``, once untraced and once traced, and
prints the per-layer metrics. Every op's output is checked exactly.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An op fails when its output
is wrong or its exit code is not a documented outcome; a budget-bound
``solve`` op with a verified upper bound and exit code 3 is an
inconclusive answer, not a failure, and ``fail_share`` counts it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "lift", "solve")
DEADLINE_S = 170.0
SETUP_SPAWNS = 9
SETUP_CODE = "import mslab.cli; print('ready', flush=True)"
# Baseline seconds per op; fixes the traced run's op count from --seconds
# alone, so its counts repeat exactly for a given seed.
NOMINAL_OP_S = {"sweep": 0.15, "lift": 0.4, "solve": 0.33}
DIGEST_OPS = 8


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MSLAB_NODE_BUDGET", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_seconds(env: dict[str, str], started: float) -> tuple[float, float]:
    """Median calibrated time from a fresh interpreter to mslab.cli
    imported, and the raw median.

    The first spawn only warms the bytecode cache and is not counted.
    """
    times = []
    raw = []
    for spawn in range(SETUP_SPAWNS + 1):
        before = calibrate.speed()
        begin = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - begin
            rc = proc.wait(timeout=remaining(started))
        if rc != 0 or line != b"ready\n":
            raise BenchError("importing mslab.cli failed")
        if spawn:
            raw.append(elapsed)
            times.append(elapsed * 2 / (before + calibrate.speed()))
    return statistics.median(times), statistics.median(raw)


def run_worker(workload: str, args, stop: list[str], traced: bool,
               env: dict[str, str], started: float) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}-{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--node-budget", str(args.node_budget),
           "--work-dir", str(work), "--result", str(result), *stop]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              timeout=remaining(started))
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited {proc.returncode}")
        with open(result, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker timed out") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def tail(durations: list[float]) -> tuple[float, int, int]:
    """(value, percentile, ops beyond) at the highest whole percentile
    that leaves at least 10 ops beyond it (the minimum below 11 ops)."""
    ordered = sorted(durations)
    n = len(ordered)
    pct = max(0, 100 * (n - 10) // n)
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct, n - rank


def digest(ops: list[dict]) -> str:
    text = "\n".join(str(op["answer"]) for op in ops)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def problems(ops: list[dict]) -> list[str]:
    return [f"op {op['op']}: {op['problem']}" for op in ops
            if op["problem"] is not None]


def environment() -> str:
    return (f"nproc {os.cpu_count()}, python {platform.python_version()}, "
            f"{platform.machine()}")


def measure(workload: str, args, env, started) -> dict:
    setup_s, setup_raw = setup_seconds(env, started)
    res = run_worker(workload, args, ["--seconds", str(args.seconds)],
                     False, env, started)
    ops = res["ops"]
    if not ops:
        raise BenchError("no op ran")
    durations = [op["s"] / op["speed"] for op in ops]
    raw = [op["s"] for op in ops]
    wrong = problems(ops)
    failed = len(wrong)
    inconclusive = sum(1 for op in ops
                       if op["rc"] == 3 and op["problem"] is None)
    tail_s, pct, beyond = tail(durations)
    metrics = {
        "ops_per_s": (len(ops) / sum(durations), "ops/s"),
        "op_p50_ms": (statistics.median(durations) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    fail_share = (failed + inconclusive) / len(ops)
    print(f"workload {workload}  seed {args.seed}  ops {len(ops)}  "
          f"node budget {args.node_budget}  ({environment()})")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{pct}, {beyond} of {len(ops)} ops beyond)"
        print(f"  {name:<12} {value:12.4f} {unit}{note}")
    print(f"  raw wall time: {len(raw) / sum(raw):.4f} ops/s, p50 "
          f"{statistics.median(raw) * 1000:.4f} ms, p{pct} "
          f"{tail(raw)[0] * 1000:.4f} ms, setup {setup_raw:.4f} s, "
          f"host speed {statistics.median(op['speed'] for op in ops):.3f}")
    loose = sum(1 for op in ops if "loose" in str(op["answer"]))
    print(f"  {'fail_share':<12} {fail_share:12.4f} ratio  "
          f"({inconclusive} budget exceeded, {failed} wrong or crashed)")
    if loose:
        print(f"  {loose} budget-bound ops report a bound above their own "
              "witness's distortion / 2")
    shown = ops[:DIGEST_OPS]
    print(f"  answers digest {digest(shown)} over the first {len(shown)} ops")
    for line in wrong[:10]:
        print(f"  FAILED {line}")
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def trace_ops(workload: str, seconds: float) -> int:
    return max(2, round(seconds / (2 * NOMINAL_OP_S[workload])))


def measure_traced(workload: str, args, env, started) -> dict:
    count = trace_ops(workload, args.seconds)
    stop = ["--ops", str(count)]
    plain = run_worker(workload, args, stop, False, env, started)
    traced = run_worker(workload, args, stop, True, env, started)
    wrong = problems(plain["ops"] + traced["ops"])
    failed = len(wrong)
    same = digest(plain["ops"]) == digest(traced["ops"])
    if not same:
        wrong.append("traced and untraced runs gave different answers")
    plain_s = sum(op["s"] / op["speed"] for op in plain["ops"])
    traced_s = sum(op["s"] / op["speed"] for op in traced["ops"])
    traced_raw = sum(op["s"] for op in traced["ops"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_share"] = ((traced_s - plain_s) / plain_s, "ratio")
    print(f"workload {workload}  seed {args.seed}  traced ops {count}  "
          f"node budget {args.node_budget}  ({environment()})")
    for name, (value, unit) in metrics.items():
        if isinstance(value, int):
            print(f"  {name:<38} {value:16d} {unit}")
        elif unit == "s":
            print(f"  {name:<38} {value:16.6f} {unit}  "
                  f"({100 * value / traced_raw:5.1f}% of traced op time)")
        else:
            print(f"  {name:<38} {value:16.6f} {unit}")
    if workload == "solve":
        print("  candidates per pair: "
              + " ".join(str(op["candidates"]) for op in traced["ops"]))
    print(f"  answers digest {digest(traced['ops'])} over {count} ops")
    for line in wrong[:10]:
        print(f"  FAILED {line}")
    attempted = len(plain["ops"]) + len(traced["ops"])
    return {"correct": failed == 0 and same, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--node-budget", type=int, required=True,
                        help="gh node budget for the solve workload")
    args = parser.parse_args()
    if args.seconds <= 0 or args.node_budget < 1:
        parser.error("--seconds and --node-budget must be positive")
    if not (ROOT / "src" / "mslab" / "cli.py").is_file():
        print(f"error: no mslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    run = measure_traced if args.trace else measure
    try:
        for workload in workloads:
            res = run(workload, args, env, time.monotonic())
            print(result_line(res), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
