"""Command-line harness: exit codes, file outputs, determinism."""

import csv
import json

import pytest

from eqprice.cli import main, run_bench, trial_seed, write_bench_csv
from eqprice.model import instance_to_json, save_instance
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

    def test_invalid_json_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

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

    def test_unequal_lists_exit_one(self, capsys):
        assert main(["bench", "--n", "2,3", "--m", "1"]) == 1
        assert "equal length" in capsys.readouterr().err

    def test_generation_failure_exits_one_without_csv(self, tmp_path, capsys):
        # No draw admits eta = 1e9, so all 100 attempts fail quickly.
        out = tmp_path / "out.csv"
        code = main(
            ["bench", "--n", "2", "--m", "1", "--trials", "1", "--seed", "0",
             "--eta", "1e9", "--csv", str(out)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 100 attempts exhausted; ")
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

    def test_protocol_iteration_column_is_pinned(self):
        # The first two sizes of the bench protocol (seed 42, eta 2 mu_F,
        # weight 0.25, zero start); any drift in the floating-point path
        # of the maps or the solver loop shows up here.
        rows, _ = run_bench(
            [5, 10], [3, 8], trials=10, domain_kind="orthant", seed=42,
            eps=1e-4, max_iter=10_000, weight=0.25,
        )
        assert [r.avg_iterations for r in rows] == [662.5, 808.9]

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
