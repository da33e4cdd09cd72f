"""Exact output checks for each workload, independent of mslab.

Each check reads the files one op left behind and either returns the
op's answer as a short canonical string (the run digests these) or
raises :class:`CheckFailed`. Nothing here imports the package under
test: the expected values come from the inputs alone.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from inputs import entry_from_json, hausdorff_lift, read_matrix


class CheckFailed(Exception):
    pass


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _ratio(text) -> Fraction:
    if not isinstance(text, str) or "/" not in text:
        raise CheckFailed(f"expected a 'p/q' rational, got {text!r}")
    return Fraction(text)


def _diam_eps(d: list[list]) -> tuple:
    n = len(d)
    off = [d[i][j] for i in range(n) for j in range(i + 1, n)]
    return max(off, default=Fraction(0)), min(off, default=None)


def witness_distortion(pairs, a: list[list], b: list[list]) -> Fraction:
    """max |d_A(x, x') - d_B(y, y')| over pairs (x, y), (x', y')."""
    worst = Fraction(0)
    for k, (x, y) in enumerate(pairs):
        ax = a[x]
        by = b[y]
        for x2, y2 in pairs[k + 1:]:
            gap = abs(ax[x2] - by[y2])
            if gap > worst:
                worst = gap
    return worst


def check_solve(a_path: str, b_path: str, out_path: str, rc: int) -> str:
    """The witness realizes an exact distance and proves an upper bound;
    the diameter bounds hold and the status matches the exit code."""
    a = read_matrix(a_path)
    b = read_matrix(b_path)
    doc = _load(out_path)
    status = doc.get("status")
    expected_rc = {"exact": 0, "budget_exceeded": 3}.get(status)
    if expected_rc is None or expected_rc != rc:
        raise CheckFailed(f"status {status!r} with exit code {rc}")
    distance = _ratio(doc.get("distance"))
    pairs = doc.get("witness")
    if not isinstance(pairs, list) or not pairs:
        raise CheckFailed("witness missing")
    pairs = [tuple(p) for p in pairs]
    if any(len(p) != 2 or not all(type(v) is int for v in p) for p in pairs):
        raise CheckFailed("witness pairs must be [x, y] integer pairs")
    if any(not (0 <= x < len(a) and 0 <= y < len(b)) for x, y in pairs):
        raise CheckFailed("witness pair out of range")
    if ({x for x, _ in pairs} != set(range(len(a)))
            or {y for _, y in pairs} != set(range(len(b)))):
        raise CheckFailed("witness is not a correspondence")
    dis = witness_distortion(pairs, a, b)
    # An exact answer is realized by its witness. A budget-bound answer
    # is an upper bound; its witness must prove it, and may beat it.
    if status == "exact" and dis != 2 * distance:
        raise CheckFailed(f"witness distortion {dis} != 2 * {distance}")
    if dis > 2 * distance:
        raise CheckFailed(f"witness distortion {dis} > 2 * {distance}")
    if _ratio(doc.get("distortion")) != dis:
        raise CheckFailed("reported distortion differs from the witness's")
    diam_a = _diam_eps(a)[0]
    diam_b = _diam_eps(b)[0]
    if not abs(diam_a - diam_b) / 2 <= distance <= max(diam_a, diam_b) / 2:
        raise CheckFailed(f"distance {distance} outside the diameter bounds")
    answer = f"{distance.numerator}/{distance.denominator} {status}"
    if dis < 2 * distance:
        answer += f" loose: witness distortion {dis}"
    return answer


def check_lift(base_path: str, out_path: str, rc: int) -> str:
    """Every entry equals the benchmark's own Hausdorff value."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    base = read_matrix(base_path)
    expected = hausdorff_lift(base)
    doc = _load(out_path)
    got = [[entry_from_json(v) for v in row] for row in doc["d"]]
    if got != expected:
        bad = next(
            ((i, j) for i, row in enumerate(expected)
             for j, v in enumerate(row)
             if i >= len(got) or j >= len(got[i]) or got[i][j] != v),
            "shape")
        raise CheckFailed(f"lifted entry {bad} differs from its Hausdorff value")
    if _diam_eps(got) != _diam_eps(base):
        raise CheckFailed("diam or eps not preserved by the lift")
    members = _load(out_path + ".members.json").get("members")
    if members != list(range(1, len(expected) + 1)):
        raise CheckFailed("sidecar does not list members 1..2^n - 1")
    text = json.dumps(doc["d"], separators=(",", ":"))
    return f"{len(got)} {hash_text(text)}"


def check_sweep(out_path: str, rc: int, count: int) -> str:
    """Conclusive rows, no violations, gap = d_xy - d_hxhy on every row."""
    if rc != 0:
        raise CheckFailed(f"exit code {rc}")
    doc = _load(out_path)
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != count:
        raise CheckFailed(f"expected {count} rows")
    if doc.get("summary", {}).get("violations") != 0:
        raise CheckFailed("nonzero violations")
    answers = []
    for row in rows:
        if row.get("status") not in ("exact", "upper_bound"):
            raise CheckFailed(f"row {row.get('pair_id')} is {row.get('status')!r}")
        d_xy = _ratio(row.get("d_xy"))
        d_hxhy = _ratio(row.get("d_hxhy"))
        if _ratio(row.get("gap")) != d_xy - d_hxhy:
            raise CheckFailed(f"row {row.get('pair_id')}: gap != d_xy - d_hxhy")
        answers.append(f"{row['d_xy']},{row['d_hxhy']},{row['status']}")
    return hash_text(";".join(answers))


def hash_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
