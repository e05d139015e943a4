"""Command-line interface: records, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from udgp import (Geometry, LagOperator, NumericError, SolverConfig,
                  bins_to_positions, iht_solve, multi_start)
from udgp.cli import main
from udgp.instances import Instance, save_instance


def run(args):
    return main(args)


class TestGenerate:
    def test_writes_instance_with_expected_mass(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code = run(["generate", "--geometry", "turnpike", "--s", "10",
                    "--n", "1000", "--xi", "0", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        assert "sum_y=45" in capsys.readouterr().out
        rec = json.loads(out.read_text())
        assert sum(rec["y"]) == 45 and len(rec["true_positions"]) == 10

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["generate", "--geometry", "beltway", "--s", "6", "--n", "200",
                 "--xi", "1e-5", "--seed", "9"]
        assert run(flags + ["--out", str(a)]) == 0
        assert run(flags + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_too_coarse_is_usage_error(self, tmp_path):
        code = run(["generate", "--geometry", "turnpike", "--s", "2",
                    "--n", "3", "--xi", "0", "--seed", "0",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_non_finite_noise_is_usage_error(self, tmp_path):
        out = tmp_path / "x.json"
        for xi in ("nan", "inf"):
            assert run(["generate", "--geometry", "turnpike", "--s", "4",
                        "--n", "40", "--xi", xi, "--seed", "0",
                        "--out", str(out)]) == 2
            assert not out.exists()

    def test_bad_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--geometry", "spiral", "--s", "4", "--n", "40",
                 "--xi", "0", "--seed", "0", "--out", str(tmp_path / "x")])
        assert err.value.code == 2


# two 6-point sets on an 18-bin segment with the same histogram
HOMOMETRIC_TRUTH = [0, 1, 4, 10, 12, 17]
HOMOMETRIC_TWIN = [0, 1, 8, 11, 13, 17]


def _homometric_instance():
    n, geom = 18, Geometry.TURNPIKE
    x = np.zeros(n)
    x[HOMOMETRIC_TRUTH] = 1.0
    return Instance(geometry=geom, n=n, s=6, y=LagOperator(n, geom).forward(x),
                    true_positions=bins_to_positions(HOMOMETRIC_TRUTH, n, geom),
                    noise_sigma=0.0, seed=0)


def _answer(bins):
    """A `multi_start` stand-in whose answer is the indicator of `bins`."""
    def solve(instance, config, method="iht"):
        x = np.zeros(instance.n)
        x[bins] = 1.0
        return iht_solve(instance, SolverConfig(max_iters=0), x)
    return solve


@pytest.fixture()
def instance_file(tmp_path):
    out = tmp_path / "inst.json"
    run(["generate", "--geometry", "turnpike", "--s", "4", "--n", "40",
         "--xi", "0", "--seed", "5", "--out", str(out)])
    return out


class TestSolve:
    def test_solves_and_writes_record(self, instance_file, tmp_path):
        out = tmp_path / "res.json"
        code = run(["solve", "--in", str(instance_file), "--method", "iht",
                    "--seed", "2", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["co_p"] == 4
        assert rec["stop_reason"] == "converged"
        assert rec["f_final"] <= 1e-10
        assert len(rec["estimated_positions"]) == 4
        assert rec["stationarity_residual"] <= 1e-6

    def test_rerun_identical_except_wall_time(self, instance_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        flags = ["solve", "--in", str(instance_file), "--method", "l1pgd",
                 "--seed", "3"]
        run(flags + ["--out", str(out1)])
        run(flags + ["--out", str(out2)])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a.pop("wall_time_seconds")
        b.pop("wall_time_seconds")
        assert a == b

    def test_zero_iteration_budget(self, instance_file, tmp_path):
        out = tmp_path / "res.json"
        code = run(["solve", "--in", str(instance_file), "--max-iters", "0",
                    "--restarts", "0", "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["stop_reason"] == "max_iters"

    def test_record_says_whether_the_answer_fits_exactly(self, instance_file,
                                                         tmp_path):
        solved, cut = tmp_path / "solved.json", tmp_path / "cut.json"
        run(["solve", "--in", str(instance_file), "--seed", "2",
             "--out", str(solved)])
        # no iterations: the answer is the anchored pair, 2 of 4 points
        run(["solve", "--in", str(instance_file), "--max-iters", "0",
             "--restarts", "0", "--out", str(cut)])
        assert json.loads(solved.read_text())["exact_fit"] is True
        assert json.loads(cut.read_text())["exact_fit"] is False

    def test_record_counts_the_starts_that_ran(self, instance_file, tmp_path):
        solved, cut = tmp_path / "solved.json", tmp_path / "cut.json"
        run(["solve", "--in", str(instance_file), "--seed", "2",
             "--out", str(solved)])
        # no start fits without iterations, so all three run
        run(["solve", "--in", str(instance_file), "--max-iters", "0",
             "--restarts", "2", "--out", str(cut)])
        rec = json.loads(solved.read_text())
        assert rec["starts_run"] == rec["start_index"] + 1
        rec = json.loads(cut.read_text())
        assert rec["starts_run"] == 3 != rec["start_index"] + 1

    def test_record_carries_misfit_and_budget(self, instance_file, tmp_path):
        noisy = tmp_path / "noisy.json"
        run(["generate", "--geometry", "turnpike", "--s", "10", "--n", "1000",
             "--xi", "2e-4", "--seed", "90000", "--out", str(noisy)])
        recs = {}
        for name, flags in (("solved", ["--in", str(instance_file)]),
                            ("cut", ["--in", str(instance_file), "--max-iters",
                                     "0", "--restarts", "0"]),
                            ("noisy", ["--in", str(noisy), "--seed", "1"])):
            out = tmp_path / f"{name}.json"
            assert run(["solve", *flags, "--out", str(out)]) == 0
            recs[name] = json.loads(out.read_text())
        assert (recs["solved"]["misfit"], recs["solved"]["misfit_budget"]) == (0, 0)
        assert recs["cut"]["misfit"] > 0 == recs["cut"]["misfit_budget"]
        # one distance crossed a half-bin: the true set misfits y by 2
        assert (recs["noisy"]["misfit"], recs["noisy"]["misfit_budget"]) == (2, 8)
        assert recs["noisy"]["co_p"] == 10 and not recs["noisy"]["exact_fit"]
        for rec in recs.values():
            assert rec["exact_fit"] == (rec["misfit"] == 0)

    def test_record_counts_every_iteration(self, instance_file, tmp_path):
        out = tmp_path / "res.json"
        run(["solve", "--in", str(instance_file), "--seed", "2",
             "--out", str(out)])
        rec = json.loads(out.read_text())
        assert rec["total_iterations"] > rec["iterations"]

    def test_record_flags_homometric_answers(self, tmp_path, monkeypatch):
        inst_path = tmp_path / "inst.json"
        save_instance(_homometric_instance(), inst_path)
        recs = {}
        for name, bins in (("twin", HOMOMETRIC_TWIN),
                           ("truth", HOMOMETRIC_TRUTH)):
            monkeypatch.setattr("udgp.cli.multi_start", _answer(bins))
            out = tmp_path / f"{name}.json"
            assert run(["solve", "--in", str(inst_path), "--out", str(out)]) == 0
            recs[name] = json.loads(out.read_text())
        assert recs["twin"]["exact_fit"] and recs["twin"]["co_p"] < 6
        assert recs["twin"]["homometric"] is True
        assert recs["truth"]["co_p"] == 6
        assert recs["truth"]["homometric"] is False

    def test_unreadable_instance_exits_3(self, instance_file, tmp_path):
        code = run(["solve", "--in", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "res.json")])
        assert code == 3
        single = {"geometry": "turnpike", "n": 40, "s": 1, "xi": 0.0,
                  "seed": 0, "true_positions": [0.5], "y": [0] * 39}
        counts = {"geometry": "turnpike", "n": 40, "s": 4, "xi": 0.0,
                  "seed": 0, "true_positions": [0.0, 0.1, 0.3, 0.7],
                  "y": [-1, 0.5, 0.5] + [0] * 30 + [1] * 6}
        off_segment = dict(counts, true_positions=[-3.0, 0.5, 7.0, 0.2],
                           y=[0] * 33 + [1] * 6)
        shared_bin = dict(off_segment, true_positions=[0.0, 0.1, 0.1, 0.7])
        rec = json.loads(instance_file.read_text())
        nan_noise = dict(rec, xi=float("nan"))
        # not an object, or a non-numeric JSON type where numbers go; the
        # histogram's counts are all 0 or 1, so as booleans they sum right
        assert set(rec["y"]) == {0, 1}
        wrong_types = [[1, 2], "hello", dict(rec, xi=None), dict(rec, xi=[1]),
                       dict(rec, y={"a": 1}), dict(rec, xi="0.001"),
                       dict(rec, xi=True), dict(rec, xi=10**400),
                       dict(rec, y=[str(v) for v in rec["y"]]),
                       dict(rec, y=[v == 1 for v in rec["y"]]),
                       dict(rec, true_positions=[str(v) for v in
                                                 rec["true_positions"]])]
        for i, text in enumerate(["{not json", json.dumps(single),
                                  json.dumps(counts), json.dumps(off_segment),
                                  json.dumps(shared_bin), json.dumps(nan_noise),
                                  *map(json.dumps, wrong_types)]):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(text)
            assert run(["solve", "--in", str(bad),
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_removed_step_flags_exit_2(self, instance_file, tmp_path):
        for flag in ("--gamma", "--alpha", "--delta", "--epsilon"):
            with pytest.raises(SystemExit) as err:
                run(["solve", "--in", str(instance_file), flag, "0.5",
                     "--out", str(tmp_path / "r.json")])
            assert err.value.code == 2

    def test_negative_restarts_exits_2(self, instance_file, tmp_path):
        assert run(["solve", "--in", str(instance_file), "--restarts", "-1",
                    "--out", str(tmp_path / "r.json")]) == 2

    def test_process_exit_codes(self, tmp_path):
        """The documented exit codes reach the shell: `python -m udgp.cli`."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        def exit_code(*args):
            return subprocess.run([sys.executable, "-m", "udgp.cli", *args],
                                  env=env, capture_output=True).returncode

        assert exit_code("--version") == 0
        assert exit_code("solve", "--in", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "r.json")) == 3

    def test_numeric_failure_exits_4(self, instance_file, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericError("objective became non-finite", np.zeros(40))

        monkeypatch.setattr("udgp.cli.multi_start", fail)
        assert run(["solve", "--in", str(instance_file),
                    "--out", str(tmp_path / "r.json")]) == 4
        # the outputs created before the solve are removed, not left empty
        assert run(["bench", "--geometry", "turnpike", "--s", "4", "--n", "40",
                    "--trials", "1", "--out", str(tmp_path / "b.csv")]) == 4
        assert list(tmp_path.iterdir()) == [instance_file]

    def test_out_in_missing_directory_exits_3(self, instance_file, tmp_path,
                                              monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return multi_start(*args, **kwargs)

        monkeypatch.setattr("udgp.cli.multi_start", counted)
        out = tmp_path / "missing" / "r.json"
        assert run(["solve", "--in", str(instance_file), "--out", str(out)]) == 3
        assert calls == []

    def test_unknown_method_exits_2(self, instance_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["solve", "--in", str(instance_file), "--method", "simplex",
                 "--out", str(tmp_path / "r.json")])
        assert err.value.code == 2


class TestBench:
    def test_custom_cell_both_methods(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["bench", "--geometry", "turnpike",
                    "--s", "4", "--n", "40", "--xi", "0", "--trials", "2",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert comments[2] == ("# gamma=0.99 alpha=0.5 delta=0.0001 "
                               "epsilon=1e-08 max_iters=5000 max_backtracks=60 "
                               "restarts=49")
        header = rows[0].split(",")
        assert header == ["geometry", "s", "n", "xi", "method", "mean_co_p",
                          "mean_time_s", "trials", "time_ratio_iht_vs_l1pgd",
                          "homometric_trials"]
        iht_row = next(r for r in rows[1:] if ",iht," in r).split(",")
        assert float(iht_row[5]) == 4.0
        assert iht_row[8] != ""  # iht/l1pgd time ratio recorded
        assert iht_row[9] == "0"
        trials = (tmp_path / "bench.csv.trials.csv").read_text().splitlines()
        trial_rows = [l for l in trials if not l.startswith("#")]
        assert len(trial_rows) == 1 + 4  # header + 2 trials x 2 methods

    def test_ratio_on_iht_row_whatever_the_method_order(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--geometry", "turnpike",
                    "--s", "4", "--n", "40", "--trials", "1", "--seed", "7",
                    "--methods", "l1pgd,iht,iht", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert [r[4] for r in rows[1:]] == ["iht", "l1pgd"]
        assert all(len(r) == len(rows[0]) for r in rows)
        assert rows[1][8] != "" and rows[2][8] == ""

    def test_trials_record_exact_fit(self, tmp_path):
        out = tmp_path / "bench.csv"
        for max_iters, fit in (("5000", "true"), ("0", "false")):
            run(["bench", "--geometry", "beltway",
                 "--s", "4", "--n", "40", "--trials", "1", "--seed", "7",
                 "--restarts", "0", "--max-iters", max_iters, "--out", str(out)])
            rows = [l.split(",") for l in
                    (tmp_path / "bench.csv.trials.csv").read_text().splitlines()
                    if not l.startswith("#")]
            assert rows[0][-1] == "exact_fit"
            assert [r[-1] for r in rows[1:]] == [fit, fit]

    def test_trials_record_starts_run(self, tmp_path):
        out = tmp_path / "bench.csv"
        for restarts, starts in (("0", "1"), ("2", "3")):
            run(["bench", "--geometry", "beltway",
                 "--s", "4", "--n", "40", "--trials", "1", "--seed", "7",
                 "--restarts", restarts, "--max-iters", "0", "--out", str(out)])
            rows = [l.split(",") for l in
                    (tmp_path / "bench.csv.trials.csv").read_text().splitlines()
                    if not l.startswith("#")]
            column = rows[0].index("starts_run")
            assert [r[column] for r in rows[1:]] == [starts, starts]

    def test_trials_record_work_misfit_and_homometric(self, tmp_path,
                                                       monkeypatch):
        out = tmp_path / "bench.csv"
        trials = tmp_path / "bench.csv.trials.csv"

        def rows():
            table = [l.split(",") for l in trials.read_text().splitlines()
                     if not l.startswith("#")]
            return [dict(zip(table[0], r)) for r in table[1:]]

        run(["bench", "--geometry", "turnpike", "--s", "10", "--n", "1000",
             "--xi", "2e-4", "--trials", "2", "--seed", "1", "--methods",
             "iht", "--out", str(out)])
        for row in rows():
            assert row["misfit_budget"] == "8"
            assert int(row["total_iterations"]) >= int(row["iterations"])
            assert row["exact_fit"] == str(row["misfit"] == "0").lower()
            assert row["homometric"] == "false"
        monkeypatch.setattr("udgp.cli.generate_instance",
                            lambda *args: _homometric_instance())
        monkeypatch.setattr("udgp.cli.multi_start", _answer(HOMOMETRIC_TWIN))
        run(["bench", "--geometry", "turnpike", "--s", "6", "--n", "18",
             "--trials", "1", "--methods", "iht", "--out", str(out)])
        [row] = rows()
        assert (row["misfit"], row["exact_fit"], row["homometric"]) == (
            "0", "true", "true")
        cells = [l.split(",") for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        cell = dict(zip(cells[0], cells[1]))
        assert (cell["mean_co_p"], cell["homometric_trials"]) == ("3.000", "1")

    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run(["bench", "--geometry", "beltway",
                    "--s", "4", "--n", "40", "--trials", "0",
                    "--out", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 and rows[0].startswith("geometry,")

    def test_out_in_missing_directory_exits_3(self, tmp_path):
        out = tmp_path / "missing" / "b.csv"
        assert run(["bench", "--geometry", "beltway", "--s", "4", "--n", "40",
                    "--trials", "0", "--out", str(out)]) == 3

    def test_unwritable_out_exits_3_before_solving(self, tmp_path,
                                                   monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return multi_start(*args, **kwargs)

        monkeypatch.setattr("udgp.cli.multi_start", counted)
        out = tmp_path / "missing" / "b.csv"
        assert run(["bench", "--geometry", "beltway", "--s", "4", "--n", "40",
                    "--trials", "1", "--out", str(out)]) == 3
        assert calls == []

    def test_custom_grid_requires_cell_flags(self, tmp_path, capsys):
        cell = {"--geometry": "beltway", "--s": "4", "--n": "40"}
        out = tmp_path / "x.csv"
        for left_out in cell:
            flags = [v for k, value in cell.items() if k != left_out
                     for v in (k, value)]
            assert run(["bench", "--trials", "1", *flags, "--out", str(out)]) == 2
            assert f"missing {left_out}" in capsys.readouterr().err
            assert not out.exists()

    def test_grid_flag_is_unknown(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["bench", "--grid", "custom", "--geometry", "beltway", "--s", "4",
                 "--n", "40", "--trials", "1", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    @pytest.mark.parametrize("flags,named", [
        (["--geometry", "turnpike", "--s", "10", "--n", "15"], "--n"),
        (["--geometry", "turnpike", "--s", "1", "--n", "40"], "--s"),
        (["--geometry", "beltway", "--s", "4", "--n", "40",
          "--xi", "-0.001"], "--xi"),
        (["--scales", "10-1000"], "--scales"),
        (["--scales", "10:999"], "--scales"),
        (["--methods", ","], "--methods"),
        (["--methods", "iht,simplex"], "--methods"),
        (["--trials", "-1"], "--trials"),
        (["--seed", "-1"], "--seed"),
        (["--geometry", "turnpike", "--s", "4", "--n", "40",
          "--scales", "10:1000"], "--scales"),
        (["--xi", "1e-5"], "--xi"),
        (["--geometry", "beltway", "--s", "4", "--n", "40",
          "--xi", "nan"], "--xi"),
        (["--geometry", "turnpike", "--s", "4", "--n", "40",
          "--xi", "inf"], "--xi"),
        (["--scales", ""], "--scales"),
    ])
    def test_invalid_cell_exits_2_before_solving(self, flags, named,
                                                  tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["bench", "--trials", "1", *flags, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_trial_records_reproduce(self, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            run(["bench", "--geometry", "turnpike",
                 "--s", "4", "--n", "40", "--trials", "1", "--seed", "3",
                 "--methods", "iht", "--out", str(out)])
            rows = [l.split(",") for l in
                    (tmp_path / f"{name}.trials.csv").read_text().splitlines()
                    if not l.startswith("#")]
            # drop the time column before comparing
            outs.append([r[:8] + r[9:] for r in rows])
        assert outs[0] == outs[1]
