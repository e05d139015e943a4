"""Command-line interface: records, determinism, exit codes."""

import json

import pytest

from udgp.cli import main


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

    def test_bad_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["generate", "--geometry", "spiral", "--s", "4", "--n", "40",
                 "--xi", "0", "--seed", "0", "--out", str(tmp_path / "x")])
        assert err.value.code == 2


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

    def test_unreadable_instance_exits_3(self, tmp_path):
        code = run(["solve", "--in", str(tmp_path / "missing.json"),
                    "--out", str(tmp_path / "res.json")])
        assert code == 3
        single = {"geometry": "turnpike", "n": 40, "s": 1, "xi": 0.0,
                  "seed": 0, "true_positions": [0.5], "y": [0] * 39}
        counts = {"geometry": "turnpike", "n": 40, "s": 4, "xi": 0.0,
                  "seed": 0, "true_positions": [0.0, 0.1, 0.3, 0.7],
                  "y": [-1, 0.5, 0.5] + [0] * 30 + [1] * 6}
        for i, text in enumerate(["{not json", json.dumps(single),
                                  json.dumps(counts)]):
            bad = tmp_path / f"bad{i}.json"
            bad.write_text(text)
            assert run(["solve", "--in", str(bad),
                        "--out", str(tmp_path / "r.json")]) == 3

    def test_unknown_method_exits_2(self, instance_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["solve", "--in", str(instance_file), "--method", "simplex",
                 "--out", str(tmp_path / "r.json")])
        assert err.value.code == 2


class TestBench:
    def test_custom_cell_both_methods(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["bench", "--grid", "custom", "--geometry", "turnpike",
                    "--s", "4", "--n", "40", "--xi", "0", "--trials", "2",
                    "--seed", "7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        rows = [l for l in lines if not l.startswith("#")]
        assert any("gamma=" in c for c in comments)
        header = rows[0].split(",")
        assert header[:8] == ["geometry", "s", "n", "xi", "method",
                              "mean_co_p", "mean_time_s", "trials"]
        iht_row = next(r for r in rows[1:] if ",iht," in r).split(",")
        assert float(iht_row[5]) == 4.0
        assert iht_row[8] != ""  # iht/l1pgd time ratio recorded
        trials = (tmp_path / "bench.csv.trials.csv").read_text().splitlines()
        trial_rows = [l for l in trials if not l.startswith("#")]
        assert len(trial_rows) == 1 + 4  # header + 2 trials x 2 methods

    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run(["bench", "--grid", "custom", "--geometry", "beltway",
                    "--s", "4", "--n", "40", "--trials", "0",
                    "--out", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 and rows[0].startswith("geometry,")

    def test_custom_grid_requires_cell_flags(self, tmp_path):
        code = run(["bench", "--grid", "custom", "--trials", "1",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_trial_records_reproduce(self, tmp_path):
        outs = []
        for name in ("b1.csv", "b2.csv"):
            out = tmp_path / name
            run(["bench", "--grid", "custom", "--geometry", "turnpike",
                 "--s", "4", "--n", "40", "--trials", "1", "--seed", "3",
                 "--methods", "iht", "--out", str(out)])
            rows = [l.split(",") for l in
                    (tmp_path / f"{name}.trials.csv").read_text().splitlines()
                    if not l.startswith("#")]
            # drop the time column before comparing
            outs.append([r[:8] + r[9:] for r in rows])
        assert outs[0] == outs[1]
