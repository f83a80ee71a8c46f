"""Command-line harness: exit codes, file outputs, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from eqprice import cli, gen
from eqprice.cli import main, run_bench, trial_seed, write_bench_csv
from eqprice.gen import GenConfig, random_instance
from eqprice.model import (
    AgentCosts,
    FeasibleSet,
    ModelInstance,
    PriceDomain,
    instance_to_json,
    save_instance,
)
from conftest import make_combined_1d, make_saturated_1d


@pytest.fixture
def saturated_path(tmp_path):
    path = tmp_path / "saturated.json"
    save_instance(path, make_saturated_1d(p0=1.0))
    return path


@pytest.fixture
def combined_path(tmp_path):
    path = tmp_path / "combined.json"
    save_instance(path, make_combined_1d(p0=1.0))
    return path


class TestSolveCommand:
    def test_saturated_fixture_solves_to_four(self, saturated_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "solve",
                str(saturated_path),
                "--eps",
                "5e-7",
                "--weight",
                "0.0625",
                "--max-iter",
                "20000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["termination"] in ("converged", "exact_fixed_point")
        assert abs(doc["solution"][0] - 4.0) <= 1e-2
        assert doc["iterations"] >= 1
        assert doc["meta"]["schedule"] == "sqrt"

    def test_missing_key_names_it(self, tmp_path, capsys):
        doc = instance_to_json(make_combined_1d())
        del doc["C"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad)])
        assert code == 1
        assert "'C'" in capsys.readouterr().err

    def test_null_floor_fails_cleanly(self, tmp_path, capsys):
        doc = instance_to_json(make_combined_1d())
        doc["M"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["solve", str(bad)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: key 'M' is not a number")

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_document_that_is_a_list_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([instance_to_json(make_combined_1d())]))
        assert main(["solve", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: instance document must be a JSON object\n"

    def test_saved_instance_without_rows_solves_as_in_process(self, tmp_path, capsys):
        # X = {x >= 0}: the file's empty A loads through the loader's zero-row
        # branch, and the solve from the file gives the in-process answer.
        inst = ModelInstance.build(
            AgentCosts(C=np.eye(2), B=np.eye(2), l=[1.0, 2.0], M=3.0),
            FeasibleSet(A=[], b=[]),
            PriceDomain.orthant(),
            [1.0, 1.0],
        )
        path = tmp_path / "rowless.json"
        save_instance(path, inst)
        assert main(["solve", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = cli._solve_instance(inst, 1e-4, 10_000, None, 1.0, 1)
        assert doc["solution"] == expected.solution.tolist()
        assert doc["iterations"] == expected.iterations

    def test_stdout_of_a_child_process_is_only_the_report(self, tmp_path):
        # HiGHS's C++ layer can print to file descriptor 1 directly, which
        # capsys does not see; a fresh interpreter's whole stdout must parse.
        path = tmp_path / "cold.json"
        save_instance(path, random_instance(GenConfig(n=5, m=3, seed=42)))
        src = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "eqprice", "solve", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=300,
        )
        assert done.stderr == ""
        assert done.returncode == 0
        doc = json.loads(done.stdout)
        assert doc["termination"] == "converged" and len(doc["solution"]) == 5

    def test_iteration_limit_exit_code_with_partial_trace(self, combined_path, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "solve",
                str(combined_path),
                "--eps",
                "1e-12",
                "--max-iter",
                "10",
                "--trace",
                str(trace),
            ]
        )
        assert code == 2
        rows = list(csv.reader(trace.open()))
        assert rows[0] == ["k", "step_residual", "vi_residual", "f_value"]
        assert len(rows) == 11

    def test_validation_error_exits_one(self, tmp_path, capsys):
        inst = make_combined_1d()
        doc = instance_to_json(inst)
        doc["b"] = [-1.0]
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", str(path)]) == 1
        assert "EmptyFeasibleSet" in capsys.readouterr().err

    # Each case edits a 1-D instance (C = B = l = A = 1, M = 2, b = 10,
    # p0 = 1; the asymmetric C needs n = 2) and pins the exit code and the
    # whole stderr of ``eqprice solve``.  Errors from building the instance
    # come before every validation finding, and only errors are shown when
    # there are any.
    @pytest.mark.parametrize(
        "edits, code, stderr",
        [
            (
                dict(n=2, C=[[2.0, 1.0], [0.0, 2.0]], B=[[1.0, 0.0], [0.0, 1.0]],
                     l=[1.0, 1.0], A=[[1.0, 1.0]], p0=[1.0, 1.0]),
                1,
                "error: C is not symmetric within 1e-10\n",
            ),
            (dict(C=[[-1.0]]), 1, "error: C has smallest eigenvalue -1.000e+00\n"),
            (
                dict(b=[1.0]),
                1,
                "error: DemandInfeasible: no x in X reaches the utility floor l'x >= 2\n",
            ),
            (
                dict(b=[1.0], p0=[-3.0]),
                1,
                "error: DemandInfeasible: no x in X reaches the utility floor l'x >= 2\n",
            ),
            (
                dict(p0=[-3.0]),
                0,
                "warning: P0Projected: p0 was outside the price domain and has been projected\n",
            ),
            (dict(eta=50), 2, "warning: EtaOutOfRange: eta = 50 outside (0, 2]\n"),
            (
                dict(b=[-1.0], M=-1.0),
                1,
                "error: NonpositiveFloor: M = -1 must be positive; "
                "EmptyFeasibleSet: b has negative entries, so x = 0 violates Ax <= b\n",
            ),
        ],
        ids=["asymmetric", "indefinite", "demand", "demand-and-p0", "p0", "eta", "floor-and-b"],
    )
    def test_validation_text_is_pinned(self, tmp_path, capsys, edits, code, stderr):
        doc = {"n": 1, "m": 1, "C": [[1.0]], "B": [[1.0]], "l": [1.0], "M": 2.0,
               "A": [[1.0]], "b": [10.0], "domain": {"kind": "orthant"}, "p0": [1.0]}
        doc.update(edits)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        # The expansive eta = 50 runs to the iteration limit; keep that short.
        limit = ["--max-iter", "20"] if "eta" in edits else []
        assert main(["solve", str(path), *limit]) == code
        assert capsys.readouterr().err == stderr

    @pytest.mark.parametrize("command", ["solve", "trace"])
    def test_explicit_eta_warns_like_the_file(self, tmp_path, capsys, command):
        # --eta 50 prints the line that "eta": 50 in the file gives (the "eta"
        # case above), and no Python warning text.
        doc = {"n": 1, "m": 1, "C": [[1.0]], "B": [[1.0]], "l": [1.0], "M": 2.0,
               "A": [[1.0]], "b": [10.0], "domain": {"kind": "orthant"}, "p0": [1.0]}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        extra = ["--csv", str(out)] if command == "trace" else []
        assert main([command, str(path), "--eta", "50", "--max-iter", "20", *extra]) == 2
        stderr = "warning: EtaOutOfRange: eta = 50 outside (0, 2]\n"
        if command == "trace":
            stderr += f"wrote 20 rows to {out} (iter_limit)\n"
        assert capsys.readouterr().err == stderr

    @pytest.mark.parametrize(
        "eta, code, stderr",
        [("1", 0, ""), ("50", 2, "warning: EtaOutOfRange: eta = 50 outside (0, 2]\n")],
        ids=["admissible", "expansive"],
    )
    def test_explicit_eta_replaces_the_files(self, tmp_path, capsys, eta, code, stderr):
        # The file's "eta": 50 is not the step the solve uses, so only the
        # --eta value is checked, and an expansive one is reported once (and
        # runs to the iteration limit; keep that short).
        doc = {"n": 1, "m": 1, "C": [[1.0]], "B": [[1.0]], "l": [1.0], "M": 2.0, "A": [[1.0]],
               "b": [10.0], "domain": {"kind": "orthant"}, "p0": [1.0], "eta": 50}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        limit = ["--max-iter", "20"] if code == 2 else []
        assert main(["solve", str(path), "--eta", eta, *limit, "--out", str(out)]) == code
        assert capsys.readouterr().err == stderr

    @pytest.mark.parametrize(
        "options, code, last_line",
        [
            (["--max-iter", "20"], 2, "warning: EtaOutOfRange: eta = 50 outside (0, 2]\n"),
            (
                ["--out", "missing/report.json"],
                1,
                "error: --out: directory missing does not exist\n",
            ),
        ],
        ids=["both-warnings", "warning-then-error"],
    )
    def test_projected_p0_is_warned_first(self, tmp_path, monkeypatch, capsys, options, code, last_line):
        # Validation warns about p0 as it loads the file; the step is checked
        # when the map is built, after the output checks, so an error there
        # stops the run before the step's warning.
        doc = {"n": 1, "m": 1, "C": [[1.0]], "B": [[1.0]], "l": [1.0], "M": 2.0, "A": [[1.0]],
               "b": [10.0], "domain": {"kind": "orthant"}, "p0": [-3.0], "eta": 50}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        assert main(["solve", str(path), *options]) == code
        assert capsys.readouterr().err == (
            "warning: P0Projected: p0 was outside the price domain and has been projected\n"
            + last_line
        )

    @pytest.mark.parametrize(
        "p0, stderr",
        [
            (-3.0, "error: p0 was outside the price domain and has been projected\n"),
            (1.0, "error: eta = 50 outside (0, 2]\n"),
        ],
        ids=["p0-projected", "eta-out-of-range"],
    )
    def test_warning_raised_by_a_filter_is_one_error_line(self, tmp_path, capsys, p0, stderr):
        # As under python -W error: the first warning is raised, and main
        # prints it as any other refusal.
        doc = {"n": 1, "m": 1, "C": [[1.0]], "B": [[1.0]], "l": [1.0], "M": 2.0, "A": [[1.0]],
               "b": [10.0], "domain": {"kind": "orthant"}, "p0": [p0], "eta": 50}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", str(path), "--max-iter", "0"])
        err = capsys.readouterr().err
        assert code == 1 and err == stderr and "Traceback" not in err


    # Each of these inputs once ended in a Python traceback; now each prints
    # one error line and exits 1, from solve and from trace alike.
    @pytest.mark.parametrize(
        "edits, options, stderr",
        [
            ({}, ["--weight", "0"], "error: weight must be positive\n"),
            ({}, ["--weight", "-1"], "error: weight must be positive\n"),
            ({}, ["--weight", "nan"], "error: weight must be positive\n"),
            ({}, ["--weight", "inf"], "error: weight must be finite\n"),
            ({}, ["--eta", "inf"], "error: eta must be finite\n"),
            ({}, ["--eta", "nan"], "error: eta must be finite\n"),
            ({}, ["--eta", "0"], "error: eta must be positive\n"),
            ({}, ["--eta", "-1"], "error: eta must be positive\n"),
            ({"eta": float("inf")}, [], "error: eta must be finite\n"),
            ({"eta": 0}, [], "error: eta must be positive\n"),
            ({"eta": True}, [], "error: key 'eta' is not a number: True\n"),
            (
                {"domain": {"kind": "box", "lower": [0.0]}},
                [],
                "error: box domain requires key 'upper'\n",
            ),
            (
                {"n": 0, "m": 0, "C": [], "B": [], "l": [], "A": [], "b": [], "p0": []},
                [],
                "error: key 'n' must be at least 1\n",
            ),
            (
                {"M": 1e25},
                [],
                "error: Phase1Failed: phase-1 LP failed unexpectedly: Model error\n",
            ),
            (
                {"A": [[1e25]]},
                [],
                "error: Phase1Failed: phase-1 LP failed unexpectedly: Model error\n",
            ),
            ({"M": 10**400}, [], "error: key 'M' is not a number: int too large to convert to float\n"),
            ({}, ["--eps", "nan"], "error: eps must be finite and nonnegative\n"),
            ({}, ["--eps", "-1"], "error: eps must be finite and nonnegative\n"),
            ({}, ["--eps", "inf"], "error: eps must be finite and nonnegative\n"),
            ({}, ["--max-iter", "-1"], "error: max_iter must be nonnegative\n"),
            ({}, ["--trace-every", "-3"], "error: trace_vi_every must be nonnegative\n"),
        ],
        ids=[
            "weight-zero",
            "weight-negative",
            "weight-nan",
            "weight-inf",
            "eta-inf",
            "eta-nan",
            "eta-zero",
            "eta-negative",
            "file-eta-inf",
            "file-eta-zero",
            "file-eta-true",
            "box-without-upper",
            "n-zero",
            "huge-floor",
            "huge-A",
            "huge-integer",
            "eps-nan",
            "eps-negative",
            "eps-inf",
            "max-iter-negative",
            "trace-every-negative",
        ],
    )
    @pytest.mark.parametrize("command", ["solve", "trace"])
    def test_bad_input_prints_one_error_line(self, tmp_path, capsys, command, edits, options, stderr):
        doc = {"n": 1, "m": 1, "C": [[1.0]], "B": [[1.0]], "l": [1.0], "M": 2.0,
               "A": [[1.0]], "b": [10.0], "domain": {"kind": "orthant"}, "p0": [1.0]}
        doc.update(edits)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "trace.csv"
        extra = ["--csv", str(out)] if command == "trace" else []
        assert main([command, str(path), *options, *extra]) == 1
        assert capsys.readouterr().err == stderr
        assert not out.exists()


OUTPUTS = [("solve", "--out"), ("solve", "--trace"), ("trace", "--csv"), ("bench", "--csv")]


CASES = ["missing", "is-a-directory", "parent-is-a-file"]


@pytest.mark.parametrize(
    "command, option, case",
    [(*output, case) for case in CASES for output in OUTPUTS],
    ids=[
        f"{c}-{o}" + ("" if case == "missing" else f"-{case}") for case in CASES for c, o in OUTPUTS
    ],
)
def test_missing_output_directory_fails_before_solving(
    saturated_path, tmp_path, capsys, monkeypatch, command, option, case
):
    monkeypatch.setattr(cli, "_solve_instance", lambda *args, **kw: pytest.fail("solved"))
    if case == "is-a-directory":
        target = tmp_path / "out"
        target.mkdir()
        stderr = f"error: {option}: {target} is a directory\n"
    elif case == "parent-is-a-file":
        target = tmp_path / "file" / "out"
        target.parent.write_text("kept\n")
        stderr = f"error: {option}: {target.parent} is not a directory\n"
    else:
        target = tmp_path / "missing" / "out"
        stderr = f"error: {option}: directory {target.parent} does not exist\n"
    inputs = ["--n", "2", "--m", "1"] if command == "bench" else [str(saturated_path)]
    assert main([command, *inputs, option, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == stderr
    if case == "is-a-directory":
        assert not any(target.iterdir())
    elif case == "parent-is-a-file":
        assert target.parent.read_text() == "kept\n"
    else:
        assert not target.parent.exists()


@pytest.mark.parametrize("command, option", OUTPUTS, ids=[f"{c}-{o}" for c, o in OUTPUTS])
def test_failed_write_is_one_error_line(saturated_path, tmp_path, capsys, monkeypatch, command, option):
    target = tmp_path / "out"
    for method in ("open", "write_text"):
        def refuse(path, *args, real=getattr(Path, method), **kwargs):
            if path == target:
                raise PermissionError(13, "Permission denied", str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, method, refuse)
    inputs = ["--n", "2", "--m", "1", "--trials", "1"] if command == "bench" else [str(saturated_path)]
    assert main([command, *inputs, option, str(target)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 13] Permission denied: '{target}'\n"


class TestTraceCommand:
    def test_trace_reaches_default_threshold(self, combined_path, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["trace", str(combined_path), "--csv", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        header, body = rows[0], rows[1:]
        assert header == ["k", "step_residual", "vi_residual", "f_value"]
        assert [int(r[0]) for r in body] == list(range(1, len(body) + 1))
        assert float(body[-1][1]) < 1e-4
        # First row is the literal scaled first step.
        assert float(body[0][1]) > 0.0

    def test_iteration_limit_exits_two_and_still_writes(self, combined_path, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["trace", str(combined_path), "--csv", str(out), "--eps", "1e-12", "--max-iter", "10"]
        )
        assert code == 2
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["k", "step_residual", "vi_residual", "f_value"]
        assert len(rows) == 11
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"wrote 10 rows to {out} (iter_limit)"


class TestBenchCommand:
    def test_small_sweep_writes_row(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--n",
                "2",
                "--m",
                "1",
                "--trials",
                "2",
                "--seed",
                "42",
                "--csv",
                str(out),
                "--max-iter",
                "5000",
            ]
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["n", "m", "avg_time_s", "avg_iterations", "trials"]
        assert len(rows) == 2
        assert rows[1][0] == "2" and rows[1][4] == "2"

    def test_iteration_limit_exits_two_and_names_each_trial(self, capsys):
        # Three iterations solve neither of seed 42's first two 5/3 trials.
        args = ["bench", "--n", "5", "--m", "3", "--trials", "2", "--seed", "42", "--max-iter", "3"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "iteration limit: n=5 m=3 trial=0",
            "iteration limit: n=5 m=3 trial=1",
        ]
        meta = json.loads(captured.out.splitlines()[-1])
        assert meta["iteration_limited_trials"] == 2

    def test_unequal_lists_exit_one(self, capsys):
        assert main(["bench", "--n", "2,3", "--m", "1"]) == 1
        assert "equal length" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["nan", "-1"])
    def test_bad_eps_exits_one_without_csv(self, tmp_path, capsys, eps):
        out = tmp_path / "out.csv"
        code = main(["bench", "--n", "2", "--m", "1", "--trials", "1", "--eps", eps, "--csv", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: eps must be finite and nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, stderr",
        [
            (["--seed", "-1"], "error: seed must be nonnegative\n"),
            (["--max-iter", "-3"], "error: max_iter must be nonnegative\n"),
            (["--m", "-1"], "error: n and m must be at least 1\n"),
            (["--n", "-2"], "error: n and m must be at least 1\n"),
        ],
        ids=["seed-negative", "max-iter-negative", "m-negative", "n-negative"],
    )
    def test_negative_counts_are_named(self, tmp_path, capsys, option, stderr):
        out = tmp_path / "out.csv"
        assert main(["bench", "--n", "2", "--m", "1", "--trials", "1", *option, "--csv", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == stderr
        assert not out.exists()

    def test_generation_failure_exits_one_without_csv(self, tmp_path, capsys, monkeypatch):
        # Every attempt's factor misses the eigenvalue floor, so all 100 are spent.
        def exhausted(n, rng):
            raise gen.GenerationFailed("no factor")

        monkeypatch.setattr(gen, "pd_from_factor", exhausted)
        out = tmp_path / "out.csv"
        code = main(
            ["bench", "--n", "2", "--m", "1", "--trials", "1", "--seed", "0", "--csv", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: 100 attempts exhausted; last report: "
            "FactorRedrawsExhausted: eigenvalue floor missed\n"
        )
        assert not out.exists()

    def test_out_of_range_eta_warns_and_keeps_the_instances(self, tmp_path, capsys):
        # 5.4257 is above 2 mu_F on four of seed 42's ten 5/3 instances; each
        # of those warns as solve does, and all ten are solved as drawn.
        out = tmp_path / "out.csv"
        code = main(
            ["bench", "--n", "5", "--m", "3", "--trials", "10", "--seed", "42",
             "--eta", "5.4257", "--csv", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"warning: EtaOutOfRange: eta = 5.4257 outside (0, {bound}]"
            for bound in ("4.78399", "4.03338", "5.42521", "4.20347")
        ]
        assert "avg_iterations=817.3 " in captured.out

    @pytest.mark.parametrize(
        "eta, stderr",
        [
            ("0", "error: eta must be positive\n"),
            ("-1", "error: eta must be positive\n"),
            ("nan", "error: eta must be finite\n"),
            ("inf", "error: eta must be finite\n"),
        ],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_bad_eta_reads_as_in_solve(self, tmp_path, capsys, eta, stderr):
        out = tmp_path / "out.csv"
        args = ["bench", "--n", "2", "--m", "1", "--trials", "1", "--eta", eta, "--csv", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == stderr
        assert not out.exists()

    def test_box_domain_sweep(self, tmp_path):
        out = tmp_path / "box.csv"
        code = main(
            ["bench", "--n", "2", "--m", "1", "--trials", "2", "--seed", "1",
             "--domain", "box", "--csv", str(out), "--max-iter", "5000"]
        )
        assert code == 0
        assert len(list(csv.reader(out.open()))) == 2

    def test_same_seed_reproduces_iteration_column(self, tmp_path):
        args = dict(trials=3, domain_kind="orthant", seed=7, max_iter=5000)
        rows1, _ = run_bench([2, 3], [1, 2], **args)
        rows2, _ = run_bench([2, 3], [1, 2], **args)
        assert [r.avg_iterations for r in rows1] == [r.avg_iterations for r in rows2]

    @pytest.mark.bits
    def test_protocol_iteration_column_is_pinned(self):
        # The first two sizes of the bench protocol (seed 42, eta 2 mu_F,
        # weight 0.25, zero start); any drift in the floating-point path
        # of the maps or the solver loop shows up here.
        rows, _ = run_bench(
            [5, 10], [3, 8], trials=10, domain_kind="orthant", seed=42,
            eps=1e-4, max_iter=10_000, weight=0.25,
        )
        assert [r.avg_iterations for r in rows] == [662.5, 808.9]

    @pytest.mark.parametrize(
        "sizes, trials, message",
        [(([], []), 1, "size lists must be nonempty"), (([2], [1]), 0, "trials must be at least 1")],
        ids=["no-sizes", "no-trials"],
    )
    def test_empty_sweep_is_refused(self, sizes, trials, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_bench(*sizes, trials=trials, domain_kind="orthant", seed=0)

    def test_csv_round_trip_exact(self, tmp_path):
        rows, _ = run_bench([2], [1], trials=2, domain_kind="orthant", seed=3, max_iter=5000)
        path = tmp_path / "rt.csv"
        write_bench_csv(path, rows)
        parsed = list(csv.DictReader(path.open()))
        assert float(parsed[0]["avg_iterations"]) == rows[0].avg_iterations
        assert float(parsed[0]["avg_time_s"]) == rows[0].avg_time_s
        assert int(parsed[0]["trials"]) == rows[0].trials

    def test_trial_seed_is_stable(self):
        # Frozen derivation: documented so benchmarks are reproducible.
        assert trial_seed(42, 5, 3, 0) == trial_seed(42, 5, 3, 0)
        assert trial_seed(42, 5, 3, 0) != trial_seed(42, 5, 3, 1)
        assert trial_seed(42, 5, 3, 0) != trial_seed(43, 5, 3, 0)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "eqprice" in capsys.readouterr().out

    def test_eta_auto_accepted(self, saturated_path):
        code = main(["solve", str(saturated_path), "--eta", "auto", "--eps", "1e-5", "--max-iter", "20000"])
        assert code == 0

    def test_unknown_schedule_exits_one(self, saturated_path, capsys):
        assert main(["solve", str(saturated_path), "--schedule", "geometric"]) == 1
        assert "schedule" in capsys.readouterr().err

    def test_bench_rejects_trace_every(self, capsys):
        # bench samples the VI residual every 10th iteration; --trace-every
        # belongs to solve and trace only.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n", "2", "--m", "1", "--trace-every", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace-every 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, step", [("solve", "the derived mu_F"), ("bench", "2*mu_F")]
    )
    def test_eta_help_names_the_automatic_step(self, capsys, command, step):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"'auto' (default) uses {step}" in help_text
