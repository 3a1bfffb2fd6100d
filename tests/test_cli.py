import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slsid import Dataset, load_dataset, load_model, oracle_global, save_dataset
from slsid.bcd import MAX_RESTARTS
from slsid.cli import main
from slsid.oracle import unique_optimum


def run(args):
    return main(args)


def test_simulate_example_fixture(tmp_path, capsys):
    assert run(["simulate", "--example", "1", "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "example1.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,y,zeta"
    assert len(lines) == 5
    model = json.loads((tmp_path / "example1_model.json").read_text())
    assert model["S"] == 2 and model["params"][0] == [1.0, 1.0]


def test_simulate_random_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert (
            run(
                [
                    "simulate",
                    "--n", "2", "--S", "2", "--N", "50",
                    "--sigma", "0.1", "--seed", "7",
                    "--output", str(tmp_path / sub),
                ]
            )
            == 0
        )
    name = "scenario_n2_S2_N50_seed7.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_fit_pipeline(tmp_path, capsys):
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    code = run(
        [
            "fit",
            "--data", str(tmp_path / "example2.csv"),
            "--S", "2", "--seed", "1", "--trace",
            "--output", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "fit.json").read_text())
    assert report["objective"] < 1e-12
    assert sorted(set(report["labels"])) == [1, 2]
    trace_lines = (tmp_path / "fit_trace.csv").read_text().splitlines()
    assert trace_lines[0].startswith("iteration,theta1_1")
    assert len(trace_lines) >= 2


def test_oracle_command(tmp_path):
    run(["simulate", "--example", "1", "--output", str(tmp_path)])
    code = run(
        ["oracle", "--data", str(tmp_path / "example1.csv"), "--S", "2",
         "--output", str(tmp_path)]
    )
    assert code == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["unique"] is False
    assert payload["optimum"] <= 1e-12
    assert len(payload["classes"]) >= 2


@pytest.mark.parametrize("source", ["example1", "example2", "zero"])
def test_oracle_json_matches_the_class_dicts(tmp_path, source):
    # the command writes from the oracle's arrays; the bytes must equal the
    # indented payload with each class's own to_dict() on one compact line
    if source == "zero":
        rng = np.random.default_rng(10)
        path = tmp_path / "zero.csv"
        save_dataset(path, Dataset(rng.uniform(-3, 3, size=(10, 2)), np.zeros(10)))
    else:
        run(["simulate", "--example", source[-1], "--output", str(tmp_path)])
        path = tmp_path / f"{source}.csv"
    assert run(["oracle", "--data", str(path), "--S", "2", "--output", str(tmp_path)]) == 0
    optimum, classes = oracle_global(load_dataset(path), 2)
    payload = {
        "optimum": optimum,
        "classes": [c.to_dict() for c in classes],
        "unique": unique_optimum(classes),
    }
    rows = ",\n".join("    " + json.dumps(c, sort_keys=True) for c in payload["classes"])
    want = (
        '{\n  "classes": [\n' + rows + "\n  ],\n"
        + '  "optimum": ' + json.dumps(optimum) + ",\n"
        + '  "unique": ' + json.dumps(payload["unique"]) + "\n}\n"
    )
    text = (tmp_path / "oracle.json").read_text()
    assert text.encode() == want.encode()
    assert json.loads(text) == payload
    # all-zero outputs: every one of the 2^9 strings is its own class
    assert len(classes) == 512 or source != "zero"


def test_oracle_enumeration_limit_exit_code(tmp_path):
    run(
        ["simulate", "--n", "2", "--S", "2", "--N", "40", "--seed", "3",
         "--output", str(tmp_path)]
    )
    code = run(
        ["oracle", "--data", str(tmp_path / "scenario_n2_S2_N40_seed3.csv"),
         "--S", "2", "--limit", "100"]
    )
    assert code == 3


def test_oracle_budget_on_long_noise_exit_code(tmp_path, capsys):
    # 2000 pure-noise rows, 1000 prefix lengths: the node budget stops the
    # pass, not the depth of Python's stack
    rng = np.random.default_rng(0)
    path = tmp_path / "noise.csv"
    save_dataset(path, Dataset(rng.uniform(-3, 3, size=(2000, 2)), rng.normal(size=2000)))
    code = run(["oracle", "--data", str(path), "--S", "2", "--limit", "1000"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: the exact search would build more than 1000 ")


def test_pe_check_command(tmp_path):
    run(["simulate", "--example", "1", "--output", str(tmp_path)])
    code = run(
        [
            "pe-check",
            "--data", str(tmp_path / "example1.csv"),
            "--model", str(tmp_path / "example1_model.json"),
            "--output", str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "pe_report.json").read_text())
    assert payload["certified"] is False
    assert payload["cond3_status"] == "refuted"
    assert payload["cond1_distinct_params"] is True
    # both clusters of example 1 are generic: the capacity scan decides them
    assert payload["cond3_decided_by"] == ["scan", "scan"]


def test_min_samples_single_and_table(tmp_path, capsys):
    assert run(["min-samples", "--n", "3", "--S", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["ours"], payload["bako"], payload["vidal"]) == (8, 12, 9)
    assert run(["min-samples", "--n", "10", "--S", "7", "--table",
                "--output", str(tmp_path)]) == 0
    lines = (tmp_path / "min_samples.csv").read_text().splitlines()
    assert lines[0] == "n,S,ours,bako,vidal"
    assert len(lines) == 71
    assert lines[-1] == "10,7,259,490,19447"


def test_select_order_command(tmp_path):
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    code = run(
        [
            "select-order",
            "--data", str(tmp_path / "example2.csv"),
            "--s-bar", "4", "--penalty", "0.2599", "--seed", "1",
            "--output", str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "order.json").read_text())
    assert payload["chosen_S"] == 2
    assert len(payload["candidates"]) == 4


def test_consistency_sweep_command(tmp_path):
    code = run(
        [
            "consistency-sweep",
            "--n", "2", "--S", "2", "--sigma", "0", "--N", "30", "60",
            "--trials", "2", "--s-bar", "3", "--restarts", "4",
            "--seed", "5", "--output", str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "consistency.csv").read_text().splitlines()
    assert lines[0] == "N,trials,recovery_rate"
    assert len(lines) == 3


def test_consistency_sweep_too_small_N_is_usage_error(monkeypatch, capsys):
    from slsid import order

    calls = []
    monkeypatch.setattr(order, "select_order", lambda *args: calls.append(args))
    code = run(
        ["consistency-sweep", "--n", "2", "--S", "2", "--N", "2000", "3", "--s-bar", "4"]
    )
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "need at least S_bar=4 samples, got N=3" in err[0]
    assert calls == []


def test_bench_command(tmp_path):
    code = run(
        [
            "bench", "--cell", "2,2,60", "--repetitions", "3",
            "--restarts", "4", "--seed", "1", "--output", str(tmp_path),
        ]
    )
    assert code == 0
    summary = (tmp_path / "bench_summary.csv").read_text().splitlines()
    raw = (tmp_path / "bench_raw.csv").read_text().splitlines()
    assert summary[0].startswith("n,N,S,time_mean")
    assert len(summary) == 2
    assert len(raw) == 4


def test_bench_deterministic_apart_from_timing(tmp_path):
    outs = []
    for sub in ("x", "y"):
        run(
            ["bench", "--cell", "2,2,60", "--repetitions", "2",
             "--restarts", "3", "--seed", "9", "--output", str(tmp_path / sub)]
        )
        rows = (tmp_path / sub / "bench_raw.csv").read_text().splitlines()
        header = rows[0].split(",")
        keep = [i for i, c in enumerate(header) if c != "time"]
        outs.append([",".join(np.array(r.split(","))[keep]) for r in rows])
    assert outs[0] == outs[1]


def test_repro_commands(capsys):
    for table_id in ("table1", "example2-fit", "example2-seven", "example1-oracle"):
        assert run(["repro", table_id]) == 0, table_id
        assert "ok" in capsys.readouterr().out


def test_repro_mismatch_exit_code(monkeypatch, capsys):
    from slsid import bench

    monkeypatch.setattr(bench, "repro", lambda table_id: ["cell (1,1): got 2, expected 1"])
    assert run(["repro", "table1"]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_pe_check_label_above_S_is_usage_error(tmp_path, capsys):
    from slsid import Assignment, Dataset, fixtures, save_dataset, save_model

    model, data = fixtures.example_one_augmented()
    extra = Dataset(
        np.vstack([data.regressors, [2.0, 1.0]]),
        np.append(data.outputs, 0.5),
        Assignment(np.append(data.truth.labels, 3)),
    )
    save_dataset(tmp_path / "extra.csv", extra)
    save_model(tmp_path / "model.json", model)
    code = run(["pe-check", "--data", str(tmp_path / "extra.csv"),
                "--model", str(tmp_path / "model.json")])
    assert code == 1
    assert "above S=2" in capsys.readouterr().err


def test_non_finite_dataset_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n1.0,2.0\n2.0,nan\n3.0,1.0\n")
    assert run(["fit", "--data", str(path), "--S", "1"]) == 1
    assert "sample 2 " in capsys.readouterr().err


@pytest.mark.parametrize("where", ["outputs", "regressors"])
@pytest.mark.parametrize("command", ["oracle", "fit", "pe-check"])
def test_squares_that_overflow_are_usage_error(tmp_path, capsys, where, command):
    # outputs x 1e200 or rows x 1e160: finite values whose squares are not;
    # the oracle used to exit 0 with an infinite optimum
    from slsid import fixtures, save_model

    model, data = fixtures.example_one()
    X, y = data.regressors, data.outputs
    if where == "outputs":
        y = y * 1e200
    else:
        X = X * 1e160
    lines = ["x1,x2,y,zeta"] + [
        f"{a!r},{b!r},{c!r},{z}"
        for (a, b), c, z in zip(X.tolist(), y.tolist(), data.truth.labels.tolist())
    ]
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n")
    save_model(tmp_path / "model.json", model)
    flags = ["--model", str(tmp_path / "model.json")] if command == "pe-check" else ["--S", "2"]
    assert run([command, "--data", str(path), *flags, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    assert f"sum of squares of the {where} overflows" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_row", ["3.0,4.0,2,9", "3.0,4.0", "3.0,4.0,1.5"])
def test_malformed_dataset_row_is_usage_error(tmp_path, capsys, bad_row):
    path = tmp_path / "rows.csv"
    path.write_text(f"x1,y,zeta\n1.0,2.0,1\n{bad_row}\n5.0,6.0,2\n")
    assert run(["oracle", "--data", str(path), "--S", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3" in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("1.0,2.0,0\n", "labels are 1-based; smallest allowed label is 1"),
        ("1.0,nan,1\n", "sample 1 (1-based) holds a NaN or infinite value"),
    ],
)
def test_dataset_value_errors_name_the_file(tmp_path, capsys, body, message):
    path = tmp_path / "values.csv"
    path.write_text("x1,y,zeta\n" + body)
    assert run(["fit", "--data", str(path), "--S", "1"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_dataset_not_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"x1,y\n\xff1.0,2.0\n")
    assert run(["fit", "--data", str(path), "--S", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and "decode" in err[0]


def test_truncated_model_json_names_the_file(tmp_path, capsys):
    run(["simulate", "--example", "1", "--output", str(tmp_path)])
    capsys.readouterr()
    model = tmp_path / "example1_model.json"
    model.write_text(model.read_text()[:30])
    code = run(["pe-check", "--data", str(tmp_path / "example1.csv"), "--model", str(model)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {model}: ")


def test_oracle_negative_limit_is_usage_error(tmp_path, capsys):
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    code = run(
        ["oracle", "--data", str(tmp_path / "example2.csv"), "--S", "2", "--limit", "-5"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: limit must be >= 0, got -5\n"


def test_header_only_dataset_is_usage_error(tmp_path, capsys):
    path = tmp_path / "header.csv"
    path.write_text("x1,x2,y,zeta\n")
    assert run(["oracle", "--data", str(path), "--S", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "no data rows" in err


@pytest.mark.parametrize(
    "bounds", [["--range-lo=-inf"], ["--range-lo=-1e308", "--range-hi=1e308"]]
)
def test_simulate_range_of_infinite_width_is_usage_error(tmp_path, capsys, bounds):
    code = run(["simulate", "--n", "2", "--S", "2", "--N", "5", *bounds,
                "--output", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "param_range" in err[0]


def test_bench_cell_beyond_alignment_limit_is_usage_error(tmp_path, capsys):
    code = run(["bench", "--cell", "1,9,50", "--repetitions", "1", "--output", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "cell (1,9,50)" in err[0]
    assert not (tmp_path / "bench_raw.csv").exists()


def test_bench_bad_second_cell_fails_before_any_fit(tmp_path, capsys, monkeypatch):
    # every cell is checked when the grid is built, so a good first cell
    # does not run for nothing
    from slsid import bench

    def no_fit(*args):
        raise AssertionError("bcd_solve called")

    monkeypatch.setattr(bench, "bcd_solve", no_fit)
    code = run(["bench", "--cell", "5,4,100000", "--cell", "2,5,3", "--repetitions", "5",
                "--output", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: need at least S=5 samples, got N=3"]
    assert list(tmp_path.iterdir()) == []


def test_pe_check_without_truth_labels_is_usage_error(tmp_path, capsys):
    from slsid import Dataset, fixtures, save_dataset, save_model

    model, data = fixtures.example_one()
    save_dataset(tmp_path / "bare.csv", Dataset(data.regressors, data.outputs))
    save_model(tmp_path / "model.json", model)
    assert "zeta" not in (tmp_path / "bare.csv").read_text()
    code = run(["pe-check", "--data", str(tmp_path / "bare.csv"),
                "--model", str(tmp_path / "model.json"), "--output", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "truth labels" in lines[0] and "Traceback" not in err
    assert not (tmp_path / "pe_report.json").exists()


@pytest.mark.parametrize(
    "counts, table", [(("20000", "20000"), False), (("1000000", "1000000"), False),
                      (("7200", "7200"), True)]
)
def test_min_samples_past_4300_digits_is_usage_error(capsys, counts, table):
    # C(n+S, n) - 1 past Python's int-to-string limit: rejected before
    # math.comb runs, naming n and S; a grid checks its largest cell first
    n, S = counts
    argv = ["min-samples", "--n", n, "--S", S] + ["--table"] * table
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: C(n+S, n) - 1 for n={n}, S={S} has more than 4300 digits"
    ]


def test_min_samples_table_past_its_cell_bound_is_usage_error(capsys):
    assert run(["min-samples", "--n", "2000", "--S", "2000", "--table"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: a table for n=2000, S=2000 has 4000000 cells, more than 10000"
    ]


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--n", "1000000000000000", "--S", "2", "--N", "3"],
        ["bench", "--cell", "2,2,1000000000000000", "--repetitions", "1"],
        ["consistency-sweep", "--n", "2", "--S", "2", "--N", "1000000000000000",
         "--trials", "1", "--s-bar", "2"],
    ],
)
def test_count_too_large_to_allocate_is_usage_error(tmp_path, capsys, command):
    # 2 x 10^15 doubles: past the 2^47-byte user address space, so the
    # allocation fails whatever the overcommit setting, in a MemoryError
    assert run([*command, "--output", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "Traceback" not in err
    assert "Unable to allocate" in lines[0]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--n", "99999999999999999999", "--S", "2", "--N", "3"],
        ["bench", "--cell", "99999999999999999999,2,40"],
        ["consistency-sweep", "--n", "99999999999999999999", "--S", "2", "--N", "40",
         "--trials", "1", "--s-bar", "3"],
    ],
)
def test_count_past_intp_is_usage_error_naming_it(tmp_path, capsys, command):
    # a count numpy cannot index is rejected by the count rule, which
    # names the field, before any array is built
    assert run([*command, "--output", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: n must be <= {np.iinfo(np.intp).max}, got 99999999999999999999"
    ]
    assert not any(tmp_path.iterdir())


def test_seed_past_intp_is_accepted(tmp_path):
    # seeds have no upper bound: numpy's generators take any size
    argv = ["simulate", "--n", "1", "--S", "2", "--N", "3", "--seed", "99999999999999999999"]
    assert run([*argv, "--output", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 1


def test_fit_without_usable_fit_exits_4(tmp_path, capsys):
    # identical samples: every restart keeps emptying its spare clusters
    path = tmp_path / "same.csv"
    path.write_text("x1,y\n" + "1,0\n" * 6)
    assert run(["fit", "--data", str(path), "--S", "3"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "degenerated" in err[0]


def test_select_order_without_usable_fit_exits_4(tmp_path, capsys, monkeypatch):
    from slsid import cli
    from slsid.bcd import SolverFailure

    def failing(data, cfg):
        raise SolverFailure("candidate S'=2: every restart collapsed clusters")

    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    monkeypatch.setattr(cli, "select_order", failing)
    code = run(["select-order", "--data", str(tmp_path / "example2.csv"), "--s-bar", "3"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: candidate S'=2")


@pytest.mark.parametrize("command", [["fit", "--S", "2"], ["select-order", "--s-bar", "3"]])
@pytest.mark.parametrize("restarts", [MAX_RESTARTS + 1, 10**20])
def test_restarts_past_the_bound_are_usage_error(tmp_path, capsys, monkeypatch, command, restarts):
    # every restart runs, so an unbounded count could run until killed
    from slsid import cli, order

    monkeypatch.setattr(cli, "bcd_solve", _refuse_run)
    monkeypatch.setattr(order, "bcd_solve", _refuse_run)
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    argv = [command[0], "--data", str(tmp_path / "example2.csv"), *command[1:]]
    assert run(argv + ["--restarts", str(restarts)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: restarts must be <= {MAX_RESTARTS}, got {restarts}"]


def _refuse_run(*args, **kwargs):
    raise AssertionError("a descent ran on a count past the bound")


@pytest.mark.parametrize("command", [["fit", "--S", "2"], ["select-order", "--s-bar", "3"]])
def test_broken_descent_exits_4(tmp_path, capsys, monkeypatch, command):
    # rows whose scales differ by up to 1e12 (test_oracle's _scaled_rows(16)):
    # the exact-fit rule fits them, so the command succeeds; a descent whose
    # objective rises raises DescentError, which exits 4
    from slsid import cli, order
    from slsid.bcd import DescentError

    rng = np.random.default_rng(16)
    X = rng.uniform(-3, 3, size=(8, 2)) * 10.0 ** rng.integers(-6, 7, size=(8, 1))
    path = tmp_path / "scaled.csv"
    save_dataset(path, Dataset(X, rng.normal(0, 1, size=8)))
    argv = [command[0], "--data", str(path), *command[1:], "--output", str(tmp_path)]
    assert run(argv) == 0

    def broken(data, cfg):
        raise DescentError(0, 2, 1.0, 2.0)

    monkeypatch.setattr(cli, "bcd_solve", broken)
    monkeypatch.setattr(order, "bcd_solve", broken)
    capsys.readouterr()
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 4
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "descent broken" in lines[0]
    assert "Traceback" not in err


def test_oracle_command_enumerates_once(tmp_path, monkeypatch):
    from slsid import cli, oracle

    calls = []
    scan = oracle.oracle_global

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    # both names: the command's own and the module's, so a second scan
    # through any slsid.oracle helper is counted too
    monkeypatch.setattr(cli, "oracle_global", counting)
    monkeypatch.setattr(oracle, "oracle_global", counting)
    run(["simulate", "--example", "1", "--output", str(tmp_path)])
    assert run(["oracle", "--data", str(tmp_path / "example1.csv"), "--S", "2"]) == 0
    assert len(calls) == 1


def test_pe_check_model_n_mismatch_is_usage_error(tmp_path, capsys):
    from slsid import SLModel, save_model

    run(["simulate", "--example", "1", "--output", str(tmp_path)])
    save_model(tmp_path / "wide.json", SLModel(np.ones((2, 3))))
    code = run(["pe-check", "--data", str(tmp_path / "example1.csv"),
                "--model", str(tmp_path / "wide.json")])
    assert code == 1
    assert "model has n=3 but the dataset has n=2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("[1.0, 2.0]", "must be an object"), ('{"n": 2, "S": 2}', "lacks params")],
)
def test_pe_check_malformed_model_is_usage_error(tmp_path, capsys, text, message):
    run(["simulate", "--example", "1", "--output", str(tmp_path)])
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = run(["pe-check", "--data", str(tmp_path / "example1.csv"),
                "--model", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_pe_check_nan_params_is_usage_error(tmp_path, capsys):
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    path = tmp_path / "example2_model.json"
    payload = json.loads(path.read_text())
    payload["params"][0][0] = float("nan")
    path.write_text(json.dumps(payload))
    code = run(["pe-check", "--data", str(tmp_path / "example2.csv"),
                "--model", str(path), "--output", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "params row 1 " in err
    assert not (tmp_path / "pe_report.json").exists()


@pytest.mark.parametrize("penalty", ["nan", "inf", "-1"])
def test_select_order_bad_penalty_is_usage_error(tmp_path, capsys, penalty):
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    code = run(["select-order", "--data", str(tmp_path / "example2.csv"),
                "--s-bar", "2", "--penalty", penalty, "--output", str(tmp_path)])
    assert code == 1
    assert "finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "order.json").exists()


def test_select_order_non_numeric_penalty_names_the_flag(tmp_path, capsys):
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    data = ["--data", str(tmp_path / "example2.csv"), "--s-bar", "2"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"penalty": "abc"}))
    for argv in (
        ["select-order", *data, "--penalty", "abc"],
        ["--config", str(cfg), "select-order", *data],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --penalty/--lambda: expected 'auto' or a number, got 'abc'" in err
    assert not (tmp_path / "order.json").exists()


@pytest.mark.parametrize(
    "config, command",
    [
        ({"N": "200"}, ["consistency-sweep", "--n", "2", "--S", "2", "--s-bar", "2"]),
        ({"N": 200}, ["consistency-sweep", "--n", "2", "--S", "2", "--s-bar", "2"]),
        ({"cell": "2,2,40"}, ["bench"]),
    ],
)
def test_config_scalar_for_list_option_is_usage_error(tmp_path, capsys, config, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["--config", str(cfg), *command]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    key = next(iter(config))
    assert err == [f"error: config key {key!r} must be a list for {command[0]}"]


def test_config_list_elements_go_through_the_option_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": ["200"]}))
    code = run(
        ["--config", str(cfg), "consistency-sweep", "--n", "2", "--S", "2",
         "--s-bar", "2", "--trials", "1", "--output", str(tmp_path)]
    )
    assert code == 0
    lines = (tmp_path / "consistency.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [["200", "1"]]


@pytest.mark.parametrize(
    "config, command, flag",
    [
        ({"S": 2.5}, ["oracle"], "--S"),
        ({"N": ["x"]}, ["consistency-sweep", "--n", "2", "--S", "2", "--s-bar", "2"], "--N"),
        ({"cell": [[2, 2, 40]]}, ["bench"], "--cell"),
        # null, a list for a one-value option, a value outside the choices
        # and a path that is not a string
        ({"n": None}, ["min-samples", "--S", "2"], "--n"),
        ({"n": [2]}, ["simulate", "--S", "2", "--N", "3"], "--n"),
        ({"example": 3}, ["simulate"], "--example"),
        ({"output": 5}, ["min-samples", "--n", "2", "--S", "2"], "--output"),
        # a flag takes a JSON boolean only
        ({"table": "no"}, ["min-samples", "--n", "2", "--S", "2"], "--table"),
        ({"table": 1}, ["min-samples", "--n", "2", "--S", "2"], "--table"),
        ({"table": None}, ["min-samples", "--n", "2", "--S", "2"], "--table"),
    ],
)
def test_config_value_of_the_wrong_type_is_usage_error(tmp_path, capsys, config, command, flag):
    run(["simulate", "--example", "2", "--output", str(tmp_path)])
    if command == ["oracle"]:
        command = ["oracle", "--data", str(tmp_path / "example2.csv")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["--config", str(cfg), *command])
    assert exc.value.code == 1
    err = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    value = next(iter(config.values()))
    assert err == [f"slsid {command[0]}: error: argument {flag}: invalid value {value!r} in --config"]


@pytest.mark.parametrize("table, grid", [(False, False), (True, True)])
def test_config_flag_is_a_json_boolean(tmp_path, capsys, table, grid):
    # false leaves the flag off and true turns it on, as the bare flag does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table": table}))
    assert run(["--config", str(cfg), "min-samples", "--n", "2", "--S", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,S,ours,bako,vidal") == grid
    if not grid:
        assert json.loads(out) == {"n": 2, "S": 2, "ours": 5, "bako": 8, "vidal": 5}


@pytest.mark.parametrize("config_cell", ["1,1,20", [1, 1, 20]])
def test_explicit_cells_replace_the_config_cells(tmp_path, config_cell):
    # a valid config cell, and one the config alone would reject: either way
    # the explicit --cell values are the only cells run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cell": [config_cell]}))
    for cells in (["1,2,20"], ["1,2,20", "2,2,30"]):
        flags = [arg for cell in cells for arg in ("--cell", cell)]
        code = run(
            ["--config", str(cfg), "bench", *flags, "--repetitions", "1",
             "--restarts", "1", "--output", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "bench_summary.csv").read_text().splitlines()[1:]
        run_cells = [row.split(",")[:3] for row in rows]
        assert run_cells == [[c.split(",")[i] for i in (0, 2, 1)] for c in cells]


def test_malformed_cell_names_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--cell", "2,2"])
    assert exc.value.code == 1
    assert "argument --cell: expected n,S,N, got '2,2'" in capsys.readouterr().err


def test_repro_has_no_output_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["repro", "table1", "--output", str(tmp_path)])
    assert exc.value.code == 1
    assert not any(tmp_path.iterdir())


def test_simulate_without_example_or_sizes_is_usage_error(tmp_path, capsys):
    assert run(["simulate", "--n", "2", "--S", "2", "--output", str(tmp_path)]) == 1
    assert "provide --example or all of --n/--S/--N" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_config_equals_form_and_unreadable_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "S": 2}))
    assert run([f"--config={cfg}", "min-samples"]) == 0
    assert json.loads(capsys.readouterr().out)["ours"] == 8
    assert run([f"--config={tmp_path / 'missing.json'}", "min-samples"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config: ")
    cfg.write_bytes(b"\xff{}")
    assert run([f"--config={cfg}", "min-samples"]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config: ")


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--n", "2", "--S", "2", "--N", "20"],
        ["bench", "--cell", "2,2,20", "--repetitions", "1", "--restarts", "1"],
        ["consistency-sweep", "--n", "2", "--S", "2", "--N", "20", "--trials", "1",
         "--s-bar", "2", "--restarts", "1"],
    ],
)
@pytest.mark.parametrize("sigma", ["-0.1", "nan"])
def test_bad_sigma_is_usage_error(tmp_path, capsys, command, sigma):
    code = run(command + ["--sigma", sigma, "--output", str(tmp_path)])
    assert code == 1
    assert "sigma must be finite and nonnegative" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_pe_check_undecided_exit_code(tmp_path):
    # a single cluster above the enumeration guard yields an undecided
    # verdict, reported with exit code 3
    run(["simulate", "--n", "2", "--S", "1", "--N", "20", "--seed", "2",
         "--output", str(tmp_path)])
    stem = "scenario_n2_S1_N20_seed2"
    code = run(
        ["pe-check", "--data", str(tmp_path / f"{stem}.csv"),
         "--model", str(tmp_path / f"{stem}_model.json"),
         "--output", str(tmp_path)]
    )
    assert code == 3
    payload = json.loads((tmp_path / "pe_report.json").read_text())
    assert payload["cond3_status"] == "undecided"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--S", "2"])  # missing --data
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--n", "2", "--S", "2", "--N", "10"],
        ["consistency-sweep", "--n", "2", "--S", "2", "--N", "20", "--trials", "1",
         "--s-bar", "2"],
        ["bench", "--cell", "2,2,40", "--repetitions", "1"],
    ],
)
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    assert run([*command, "--seed", "-1", "--output", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be None or >= 0, got -1"]
    assert not any(tmp_path.iterdir())


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 1


def test_missing_file_is_usage_error(tmp_path):
    assert run(["fit", "--data", str(tmp_path / "nope.csv"), "--S", "2"]) == 1


def test_config_file_defaults_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "S": 2}))
    assert run(["--config", str(cfg), "min-samples"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["ours"], payload["bako"], payload["vidal"]) == (8, 12, 9)
    # an explicit flag overrides the config value
    assert run(["--config", str(cfg), "min-samples", "--n", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ours"] == 29


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["--config", str(cfg), "min-samples", "--n", "1", "--S", "1"]) == 1


def test_defaults_match_library_defaults():
    import inspect

    from slsid import SolverConfig, cli, oracle_global
    from slsid.bench import ScenarioSpec

    solver = SolverConfig(S=1)
    spec = ScenarioSpec(n=1, S=1, N=1)
    parse = cli.build_parser().parse_args
    fit = parse(["fit", "--data", "d.csv", "--S", "2"])
    assert (fit.restarts, fit.max_iters) == (solver.restarts, solver.max_iters)
    oracle = parse(["oracle", "--data", "d.csv", "--S", "2"])
    assert oracle.limit == inspect.signature(oracle_global).parameters["limit"].default
    select = parse(["select-order", "--data", "d.csv", "--s-bar", "3"])
    assert select.restarts == solver.restarts
    sweep = parse(["consistency-sweep", "--n", "2", "--S", "2", "--N", "40", "--s-bar", "3"])
    assert sweep.restarts == solver.restarts
    bench = parse(["bench", "--cell", "2,2,40"])
    assert (bench.sigma, bench.repetitions, bench.restarts) == (
        spec.sigma, spec.repetitions, spec.restarts
    )


def test_oracle_S_above_N_is_usage_error(tmp_path, capsys):
    # S <= N is one library rule, so both solvers print its one line
    save_dataset(tmp_path / "d.csv", Dataset(np.eye(3, 2), np.ones(3)))
    for command in ("oracle", "fit"):
        for S in ("4", "1000000"):
            assert run([command, "--data", str(tmp_path / "d.csv"), "--S", S]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert err == [f"error: need at least S={S} samples, got N=3"], command


def _oracle_csv(path, kind, N, seed, zeta=False):
    """A tiny n=2 dataset CSV of the given kind, well formed or not, with a
    last column of labels 1 and 2 under ``zeta`` when that is set."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(N, 2))
    if kind == "scaled":
        X *= 10.0 ** rng.choice([-6, 6], size=(N, 1))
    if kind == "zero":
        y = np.zeros(N)
    elif kind == "planted":
        params = rng.uniform(-3, 3, size=(2, 2))
        y = np.einsum("ij,ij->i", X, params[rng.integers(0, 2, size=N)])
    else:
        y = rng.normal(size=N)
    if kind == "huge":
        # finite outputs whose squares overflow
        y *= 1e200
    lines = ["x1,x2,y"] + [f"{a!r},{b!r},{c!r}" for (a, b), c in zip(X.tolist(), y.tolist())]
    if kind == "nan":
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",nan"
    elif kind == "inf":
        lines[-1] = "-inf," + lines[-1].split(",", 1)[1]
    elif kind == "ragged":
        lines[-1] += ",1.0"
    elif kind == "header only":
        lines = lines[:1]
    if zeta:
        labels = rng.integers(1, 3, size=N).tolist()
        lines = [lines[0] + ",zeta"] + [f"{line},{z}" for line, z in zip(lines[1:], labels)]
    Path(path).write_text("\n".join(lines) + "\n")


_KINDS = ["planted", "zero", "noise", "scaled", "huge", "nan", "inf", "ragged", "header only"]
_COUNTS = ["abc", "-1", "0", "1", "2", "3", "9", "1000000", "99999999999999999999"]


def _contract(argv, data=None, config=None, model=None):
    """Run one subcommand, on the CSV that ``_oracle_csv(path, *data)``
    writes unless ``data`` is None, with ``config`` as its --config file
    and ``model`` as its --model file unless either is None: an exit code
    of the documented set (argparse's usage exit is 1 too), no traceback,
    at most one error line.  Returns the code and the standard output."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if model is not None:
            path = Path(tmp) / "model.json"
            path.write_text(json.dumps(model))
            argv = [argv[0], "--model", str(path), *argv[1:]]
        if data is not None:
            path = Path(tmp) / "data.csv"
            _oracle_csv(path, *data)
            argv = [argv[0], "--data", str(path), *argv[1:]]
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path), *argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 1, argv
    assert code in {0, 1, 2, 3, 4}, argv
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, argv
    return code, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_KINDS),
    st.one_of(
        st.tuples(
            st.integers(1, 8),
            st.sampled_from([None, "abc", "-1", "0", "1", "40", "99999999999999999999"]),
        ),
        # a prefix length per two samples, 1000 of them; a budget of at most
        # 40 nodes keeps each run short
        st.tuples(st.just(2000), st.sampled_from(["-1", "0", "1", "40"])),
    ),
    st.integers(0, 2**16),
    st.sampled_from(_COUNTS),
)
def test_oracle_cli_contract(kind, size, seed, S):
    # any input file and any --S / --limit; a run that exits 0 found a
    # finite optimum
    N, limit = size
    argv = ["oracle", "--S", S] + ([] if limit is None else ["--limit", limit])
    code, out = _contract(argv, (kind, N, seed))
    if code == 0:
        assert math.isfinite(json.loads(out)["optimum"]), argv


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_KINDS),
    st.integers(1, 8),
    st.integers(0, 2**16),
    st.sampled_from(_COUNTS),
    # counts past bcd.MAX_RESTARTS are usage errors, run before any restart
    st.sampled_from([None, *_COUNTS, str(MAX_RESTARTS + 1)]),
)
def test_fit_cli_contract(kind, N, seed, S, restarts):
    # any input file and any --S / --restarts; a run that exits 0 found a
    # finite objective, and a count past the bound is a usage error
    argv = ["fit", "--S", S] + ([] if restarts is None else ["--restarts", restarts])
    code, out = _contract(argv, (kind, N, seed))
    if code == 0:
        assert math.isfinite(json.loads(out)["objective"]), argv
    if restarts is not None and restarts.isdigit() and int(restarts) > MAX_RESTARTS:
        assert code == 1, argv


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_KINDS),
    st.integers(1, 8),
    st.integers(0, 2**16),
    st.sampled_from(_COUNTS),
    # valid counts up to 9, then counts past bcd.MAX_RESTARTS
    st.sampled_from([None, *_COUNTS, str(MAX_RESTARTS + 1)]),
)
def test_select_order_cli_contract(kind, N, seed, s_bar, restarts):
    # any input file and any --s-bar / --restarts; a run that exits 0 chose
    # a count among the candidates
    argv = ["select-order", "--s-bar", s_bar]
    argv += [] if restarts is None else ["--restarts", restarts]
    code, out = _contract(argv, (kind, N, seed))
    if code == 0:
        assert 1 <= json.loads(out)["chosen_S"] <= int(s_bar), argv


# model files for pe-check on _oracle_csv's n = 2 rows: two valid banks (at
# S = 1 every label 2 is above S), and a file that is not an object, lacks a
# key, declares an n or S its params do not have, has the wrong n for the
# data, or holds NaN
_MODELS = [
    {"n": 2, "S": 2, "params": [[1.0, -1.0], [0.5, 2.0]]},
    {"n": 2, "S": 1, "params": [[1.0, -1.0]]},
    [[1.0, -1.0], [0.5, 2.0]],
    {"n": 2, "S": 2},
    {"S": 2, "params": [[1.0, -1.0], [0.5, 2.0]]},
    {"n": 3, "S": 2, "params": [[1.0, -1.0], [0.5, 2.0]]},
    {"n": 2, "S": 3, "params": [[1.0, -1.0], [0.5, 2.0]]},
    {"n": 3, "S": 2, "params": [[1.0, -1.0, 0.0], [0.5, 2.0, 1.0]]},
    {"n": 2, "S": 2, "params": [[float("nan"), -1.0], [0.5, 2.0]]},
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_KINDS),
    st.integers(1, 8),
    st.integers(0, 2**16),
    st.booleans(),
    st.sampled_from(_MODELS),
)
@example("planted", 8, 0, True, _MODELS[0])
def test_pe_check_cli_contract(kind, N, seed, zeta, model):
    # any input file, with or without labels, and any model file; a
    # certificate is exit 0, or 3 when its verdict is undecided
    code, out = _contract(["pe-check"], (kind, N, seed, zeta), model=model)
    assert code in {0, 1, 3}
    if code != 1:
        report = json.loads(out)
        assert (code == 3) == (report["cond3_status"] == "undecided")


# bad flag values of every kind; a valid run writes its output, so the
# valid values below are small
_BAD = ["abc", "-1", "0", "2.5", "nan", "inf"]
# config values of every JSON type
_JSON = [None, True, 0, 2, -1, 2.5, float("nan"), "2", "abc", [2], {}]


def _flags(valid):
    """Flags with a value drawn from ``valid`` each, at most one of them
    given a bad value instead."""
    good = st.fixed_dictionaries({flag: st.sampled_from(v) for flag, v in valid.items()})
    bad = st.tuples(st.sampled_from([None, *valid]), st.sampled_from(_BAD))
    return st.builds(lambda g, b: g if b[0] is None else g | dict([b]), good, bad)


def _argv(command, flags):
    """``command`` with each of ``flags`` whose value is not None."""
    return [command, *(arg for flag, v in flags.items() if v is not None for arg in (flag, v))]


def _configs(*keys):
    return st.none() | st.dictionaries(st.sampled_from(keys), st.sampled_from(_JSON), max_size=2)


# each contract's flags leave out (None) the options its config may set, and
# its @example is a config value that once ended in a traceback


# single counts up to 10^6, on either side of 4300 digits of C(n+S, n)
# (n = S = 7000 and 7200); a grid builds n*S cells, so its counts are small
_COUNTS = {False: ["1", "5", "7000", "7200", "1000000"], True: ["1", "3"]}


@settings(max_examples=40, deadline=None)
@given(
    st.booleans().flatmap(
        lambda table: st.tuples(
            _flags({"--n": [None, *_COUNTS[table]], "--S": [None, *_COUNTS[table]]}),
            st.just(table),
        )
    ),
    _configs("n", "S"),
)
@example(({"--n": None, "--S": "2"}, False), {"n": None})
@example(({"--n": "1000000", "--S": "1000000"}, False), None)
def test_min_samples_cli_contract(drawn, config):
    # a run that exits 0 prints the paper's count for each (n, S)
    flags, table = drawn
    argv = _argv("min-samples", flags) + ["--table"] * table
    code, out = _contract(argv, config=config)
    if code != 0:
        return
    if table:
        rows = [dict(zip(["n", "S", "ours"], map(int, line.split(",")[:3])))
                for line in out.splitlines()[1:]]
    else:
        rows = [json.loads(out)]
    for row in rows:
        n, S = row["n"], row["S"]
        assert 2 * row["ours"] == (n - 1) * S * S + (n + 1) * S, argv


@settings(max_examples=40, deadline=None)
@given(
    _flags({
        "--n": [None, "1", "2"], "--S": ["1", "3"], "--N": ["1", "5"], "--seed": [None, "7"],
        "--sigma": [None, "0.1"], "--range-lo": [None, "-1"],
    }),
    _configs("n", "seed", "sigma", "range_lo", "example"),
)
@example({"--n": "2", "--S": "1", "--N": "1", "--sigma": None}, {"sigma": None})
def test_simulate_cli_contract(flags, config):
    # a run that exits 0 writes a dataset and the model that made it
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv("simulate", flags | {"--output": tmp})
        code, _ = _contract(argv, config=config)
        if code == 0:
            (path,) = Path(tmp).glob("*.csv")
            data, model = load_dataset(path), load_model(path.with_name(f"{path.stem}_model.json"))
            assert data.n == model.n and data.truth.labels.max() <= model.S, argv


@settings(max_examples=30, deadline=None)
@given(
    _flags({
        "--n": [None, "1", "2"], "--S": ["1", "2"], "--N": ["3", "8"], "--trials": ["1", "2"],
        "--s-bar": ["2", "3"], "--sigma": [None, "0"], "--restarts": [None, "2"],
        "--penalty": [None, "0.5"], "--seed": [None, "3"],
    }),
    _configs("n", "sigma", "restarts", "penalty", "seed"),
)
@example(
    {"--n": "2", "--S": "2", "--N": "8", "--trials": "1", "--s-bar": "3"}, {"restarts": None}
)
def test_consistency_sweep_cli_contract(flags, config):
    # a run that exits 0 reports a rate for the N it was given
    argv = _argv("consistency-sweep", flags)
    code, out = _contract(argv, config=config)
    if code == 0:
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["N"] == flags["--N"] and 0 <= float(row["recovery_rate"]) <= 1, argv


@settings(max_examples=30, deadline=None)
@given(
    _flags({
        "--cell": ["2,2,40", "1,1,3", "0,2,40", "2,3,2", "2,9,40"],
        "--repetitions": ["1", "2"], "--restarts": [None, "3"], "--sigma": [None, "0"],
        "--seed": [None, "7"],
    }),
    _configs("cell", "restarts", "sigma", "seed"),
)
@example({"--cell": "2,2,40", "--repetitions": "1"}, {"sigma": [0]})
def test_bench_cli_contract(flags, config):
    # a run that exits 0 summarizes the one cell it was given, first
    argv = _argv("bench", flags)
    code, out = _contract(argv, config=config)
    if code == 0:
        row = next(csv.DictReader(io.StringIO(out)))
        assert ",".join(row[k] for k in ("n", "S", "N")) == flags["--cell"], argv
