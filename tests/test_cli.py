import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslab.cli import main

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=16,
)
SMALL_MATRICES = st.lists(
    st.lists(st.integers(-1, 4) | st.sampled_from(["1/2", "3/1", "x"]),
             max_size=4),
    max_size=4)
SPACE_DOCS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {"d": JSON_VALUES | SMALL_MATRICES},
        optional={"labels": JSON_VALUES, "name": JSON_VALUES}),
)


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"d": [[0, 1, 3], [1, 0, 2], [3, 2, 0]]}))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"d": [[0, "1/2"], ["1/2", 0]]}))
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    # asymmetric on purpose: feeds the --unchecked escape hatch
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": [[0, 1], [100, 0]]}))
    return str(path)


class TestValidate:
    def test_ok(self, line_file, capsys):
        assert main(["validate", "--input", line_file]) == 0
        out = capsys.readouterr().out
        assert "n=3" in out and "diam=3/1" in out

    def test_triangle_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"d": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
        assert main(["validate", "--input", str(path)]) == 2
        assert "d[0][2] > d[0][1] + d[1][2]" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", "--input", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("doc", [
        {"d": 5}, {"d": [5]}, {"d": "ab"}, {"d": {"a": 1}},
        {"d": [[0]], "labels": 5}, {"d": [[0]], "labels": "a"},
    ])
    def test_malformed_shape_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_undecodable_bytes_exit_2(self, tmp_path):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{}")
        assert main(["validate", "--input", str(path)]) == 2

    @given(doc=SPACE_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_any_json_exits_0_or_2(self, doc):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["validate", "--input", path])
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()


    @given(doc=SPACE_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_any_json_unchecked_gamma_exits_0_1_or_2(self, doc):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["verify-gamma", "--z", path,
                             "--x", "0", "--y", "1", "--unchecked"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestGen:
    def test_reproducible(self, tmp_path, capsys):
        assert main(["gen", "--n", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_output_is_loadable(self, tmp_path):
        out = tmp_path / "space.json"
        assert main(["gen", "--n", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        assert main(["validate", "--input", str(out)]) == 0


class TestHausdorff:
    def test_value(self, line_file, capsys):
        assert main(["hausdorff", "--z", line_file,
                     "--x", "0", "--y", "1,2"]) == 0
        assert capsys.readouterr().out.strip() == "3/1"

    def test_bad_indices(self, line_file):
        assert main(["hausdorff", "--z", line_file,
                     "--x", "9", "--y", "1"]) == 2
        assert main(["hausdorff", "--z", line_file,
                     "--x", "a", "--y", "1"]) == 2


class TestGh:
    def test_text_output(self, line_file, pair_file, capsys):
        assert main(["gh", "--a", line_file, "--b", pair_file]) == 0
        assert capsys.readouterr().out.strip() == "5/4"

    def test_json_output(self, line_file, pair_file, capsys):
        assert main(["gh", "--a", line_file, "--b", pair_file,
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distance"] == "5/4"
        assert doc["distortion"] == "5/2"
        assert doc["status"] == "exact"

    def test_budget_exit_3(self, line_file, pair_file, monkeypatch):
        monkeypatch.setenv("MSLAB_NODE_BUDGET", "1")
        assert main(["gh", "--a", line_file, "--b", pair_file]) == 3

    def test_flag_overrides_env(self, line_file, pair_file, monkeypatch):
        monkeypatch.setenv("MSLAB_NODE_BUDGET", "1")
        assert main(["gh", "--a", line_file, "--b", pair_file,
                     "--node-budget", "100000"]) == 0

    def test_bad_env_value(self, line_file, pair_file, monkeypatch):
        monkeypatch.setenv("MSLAB_NODE_BUDGET", "many")
        assert main(["gh", "--a", line_file, "--b", pair_file]) == 2

    def test_too_many_points_exit_2(self, line_file, pair_file, monkeypatch,
                                    capsys):
        # the real cap is 800 points; lowering it spares an 800-point file
        monkeypatch.setattr("mslab.gh.MAX_SEARCH_VARIABLES", 4)
        assert main(["gh", "--a", line_file, "--b", pair_file]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_point_cap_is_checked_before_validation(self, tmp_path,
                                                    monkeypatch, capsys):
        # a 5-point file that breaks the triangle inequality: the cap
        # message, not the triangle error, shows the cap came first
        monkeypatch.setattr("mslab.gh.MAX_SEARCH_VARIABLES", 4)
        big = tmp_path / "big.json"
        rows = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
        rows[0][1] = rows[1][0] = 9
        big.write_text(json.dumps({"d": rows}))
        point = tmp_path / "point.json"
        point.write_text(json.dumps({"d": [[0]]}))
        assert main(["gh", "--a", str(big), "--b", str(point)]) == 2
        assert "at most 4 points in all" in capsys.readouterr().err


class TestHyperspace:
    def test_stdout_doc(self, line_file, capsys):
        assert main(["hyperspace", "--input", line_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["members"] == list(range(1, 8))
        assert len(doc["space"]["d"]) == 7

    def test_file_output(self, line_file, tmp_path, capsys):
        out = tmp_path / "h.json"
        assert main(["hyperspace", "--input", line_file,
                     "--out", str(out)]) == 0
        assert out.exists()
        sidecar = tmp_path / "h.json.members.json"
        assert json.loads(sidecar.read_text())["members"] == list(range(1, 8))

    def test_cap(self, tmp_path):
        out = tmp_path / "big.json"
        assert main(["gen", "--n", "5", "--seed", "1",
                     "--out", str(out)]) == 0
        assert main(["hyperspace", "--input", str(out), "--cap", "4"]) == 2


class TestClosedForm:
    def test_simplex_simplex(self, capsys):
        assert main(["closed-form", "--t", "1", "--p", "2",
                     "--s", "1", "--q", "3"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_one_point(self, line_file, capsys):
        assert main(["closed-form", "--input", line_file]) == 0
        assert capsys.readouterr().out.strip() == "3/2"

    def test_simplex_vs_finite(self, line_file, capsys):
        assert main(["closed-form", "--t", "2", "--m", "4",
                     "--input", line_file]) == 0
        assert capsys.readouterr().out.strip() == "1/1"

    def test_delta_bound(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"d": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
        assert main(["closed-form", "--t", "3", "--p", "2",
                     "--delta", "1", "--input", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1/1 3/2"

    def test_no_selector_is_usage_error(self):
        assert main(["closed-form", "--t", "1"]) == 2

    def test_unsupported_case(self, line_file):
        assert main(["closed-form", "--t", "2", "--m", "2",
                     "--input", line_file]) == 2


class TestVerify:
    def test_embedding_ok(self, line_file, capsys):
        assert main(["verify-embedding", "--z", line_file,
                     "--x", "0", "--y", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "lhs 3/1" in out and "rhs 3/1" in out

    def test_gamma_ok(self, line_file, capsys):
        assert main(["verify-gamma", "--z", line_file,
                     "--x", "0,1", "--y", "2"]) == 0
        assert "all identities hold" in capsys.readouterr().out

    def test_unchecked_gamma_detects_break(self, bad_file, capsys):
        code = main(["verify-gamma", "--z", bad_file,
                     "--x", "0", "--y", "1", "--unchecked"])
        assert code == 1
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify-gamma", "verify-embedding"])
    def test_unchecked_ragged_matrix_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "rag.json"
        path.write_text(json.dumps({"d": [[0], [1, 0]]}))
        assert main([command, "--z", str(path), "--x", "0", "--y", "1",
                     "--unchecked"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_without_unchecked_same_file_exits_2(self, bad_file):
        assert main(["verify-gamma", "--z", bad_file,
                     "--x", "0", "--y", "1"]) == 2


class TestReports:
    def test_sweep_json(self, capsys):
        assert main(["sweep-nonexpansion", "--count", "4",
                     "--max-n", "2", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "nonexpansion_sweep"
        assert len(doc["rows"]) == 4

    def test_sweep_csv_to_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep-nonexpansion", "--count", "3", "--max-n", "2",
                     "--seed", "3", "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("pair_id,seed,n_x,n_y")
        assert len(lines) == 4

    def test_sweep_budget_exit_3(self):
        assert main(["sweep-nonexpansion", "--count", "2", "--max-n", "3",
                     "--seed", "3", "--node-budget", "1"]) == 3

    def test_probe(self, capsys):
        assert main(["probe-isometry", "--count", "3", "--n", "3",
                     "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "isometry_probe"

    def test_table(self, capsys):
        assert main(["table-simplex", "--p-max", "2",
                     "--t-set", "1,3/2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_equal"] is True


# sha256 of each report's stdout: answers, witnesses and report bytes
# stay fixed unless a change means to alter them
REPORT_DIGESTS = [
    (["sweep-nonexpansion", "--count", "300", "--max-n", "3", "--seed", "0",
      "--format", "json"],
     "cfbd57eabefbf2b32311bac726bc46cb5b8fed79abfda3d2432dd1ac0b6d7754"),
    (["probe-isometry", "--count", "100", "--n", "3", "--seed", "1"],
     "44cd534d648357a26d2e3bc328aedf48f6562836acb314cecb2b9c584b0085b2"),
    (["table-simplex", "--p-max", "4"],
     "96c38a384c67d0698f9771469fe56f8b03782548f6532ee7b25618f1287254dd"),
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS,
                         ids=[argv[0] for argv, _ in REPORT_DIGESTS])
def test_report_bytes_are_pinned(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestSubprocessEntry:
    def test_module_invocation(self, line_file):
        proc = subprocess.run(
            [sys.executable, "-m", "mslab.cli", "validate",
             "--input", line_file],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "valid" in proc.stdout

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mslab.cli", "no-such-command"],
            capture_output=True, text=True)
        assert proc.returncode == 2
