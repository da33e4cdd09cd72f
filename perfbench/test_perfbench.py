"""Self-tests of the benchmark: the checks catch tampering, counts repeat.

Run from the root of a checkout (not part of the tier-1 suite, which
collects only ``tests/``)::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from mslab import cli  # noqa: E402

BUDGET = "50000"


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def rewrite(path: Path, change) -> None:
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def test_tampered_witness_is_caught(tmp_path):
    a, b = inputs.solve_pair(seed=3, op=1)
    a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "o.json"
    inputs.write_space(str(a_path), a)
    inputs.write_space(str(b_path), b)
    rc = run_cli(["gh", "--a", str(a_path), "--b", str(b_path), "--format",
                  "json", "--out", str(out), "--node-budget", "10000000"])
    assert rc == 0
    assert checks.check_solve(str(a_path), str(b_path), str(out), rc).endswith("exact")

    def full_witness(doc):
        # a consistent forgery: the reported distortion matches the witness
        pairs = [(x, y) for x in range(len(a)) for y in range(len(b))]
        dis = checks.witness_distortion(pairs, a, b)
        doc["witness"] = [list(p) for p in pairs]
        doc["distortion"] = f"{dis.numerator}/{dis.denominator}"

    rewrite(out, full_witness)
    with pytest.raises(checks.CheckFailed, match="witness distortion"):
        checks.check_solve(str(a_path), str(b_path), str(out), rc)


def test_status_must_match_exit_code(tmp_path):
    a, b = inputs.solve_pair(seed=3, op=1)
    a_path, b_path, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "o.json"
    inputs.write_space(str(a_path), a)
    inputs.write_space(str(b_path), b)
    rc = run_cli(["gh", "--a", str(a_path), "--b", str(b_path), "--format",
                  "json", "--out", str(out), "--node-budget", BUDGET])
    with pytest.raises(checks.CheckFailed, match="exit code"):
        checks.check_solve(str(a_path), str(b_path), str(out), 3 - rc)


def test_tampered_lift_entry_is_caught(tmp_path):
    base = inputs.integer_space(4, inputs.op_rng("lift", 1, 0), 9)
    base_path, out = tmp_path / "base.json", tmp_path / "h.json"
    inputs.write_space(str(base_path), base)
    rc = run_cli(["hyperspace", "--input", str(base_path), "--out", str(out)])
    assert rc == 0
    checks.check_lift(str(base_path), str(out), rc)

    def bump(doc):
        doc["d"][3][5] += 1
        doc["d"][5][3] += 1

    rewrite(out, bump)
    with pytest.raises(checks.CheckFailed, match=r"entry \(3, 5\)"):
        checks.check_lift(str(base_path), str(out), rc)


def test_tampered_sweep_gap_is_caught(tmp_path):
    out = tmp_path / "s.json"
    rc = run_cli(["sweep-nonexpansion", "--count", "3", "--seed", "4",
                  "--format", "json", "--out", str(out)])
    checks.check_sweep(str(out), rc, 3)

    def shift(doc):
        doc["rows"][1]["gap"] = "7/1"

    rewrite(out, shift)
    with pytest.raises(checks.CheckFailed, match="gap"):
        checks.check_sweep(str(out), rc, 3)


def test_general_position_spaces_are_strict():
    for op in range(20):
        d = inputs.general_position_space(4, inputs.op_rng("t", 0, op), 8)
        off = [d[i][j] for i in range(4) for j in range(i + 1, 4)]
        assert len(set(off)) == len(off)
        assert all(8 <= v < 16 for v in off)
        assert all(d[i][j] < d[i][k] + d[k][j] for i in range(4)
                   for j in range(4) for k in range(4) if len({i, j, k}) == 3)


def test_every_binding_is_traced():
    code = ("import json, mslab.cli, spans; "
            "print(json.dumps(spans.install(spans.Tracer())))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={"PYTHONPATH": f"{HERE}:{ROOT / 'src'}"})
    places = json.loads(out.stdout)
    assert {"mslab.spaces.validate_matrix", "mslab.hyperspace.validate_matrix",
            "mslab.io.validate_matrix", "mslab.experiments.validate_matrix",
            } <= set(places["validate_matrix"])
    assert "mslab.cli.gh_exact" in places["gh_exact"]


DETERMINISTIC = ("gh.nodes", "gh.budget_exceeded", "gh.candidates",
                 "gh.rank_cells", "io.write.bytes", "experiments.pairs",
                 "spaces.validate_matrix.triples", "hyperspace.build.entries",
                 "correspondence.distortion.pairs")


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--node-budget", BUDGET,
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT)
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    return {k: v["value"] for k, v in res["metrics"].items()
            if k in DETERMINISTIC or k.endswith(".calls")}


@pytest.mark.parametrize("workload", ["sweep", "lift", "solve"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    assert first == traced_counts(workload)
    assert len(first) == len(DETERMINISTIC) + 4


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--node-budget", BUDGET,
         "--workload", "solve", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
