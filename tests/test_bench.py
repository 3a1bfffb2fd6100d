import math

import numpy as np
import pytest

from slsid import bench
from slsid.bcd import SolverFailure
from slsid.bench import (
    RAW_COLUMNS,
    SUMMARY_COLUMNS,
    TABLE1_EXPECTED,
    ScenarioSpec,
    repro,
    run_bench,
    run_cell,
)


def test_reference_grid_is_complete():
    assert len(TABLE1_EXPECTED) == 70
    assert TABLE1_EXPECTED[(3, 2)] == (8, 12, 9)
    assert TABLE1_EXPECTED[(10, 7)] == (259, 490, 19447)


def test_run_cell_shapes_and_counts():
    spec = ScenarioSpec(n=2, S=2, N=80, sigma=0.1, repetitions=4, restarts=5, seed=0)
    result = run_cell(spec)
    assert len(result.raw) == 4
    assert set(result.summary) == set(SUMMARY_COLUMNS)
    assert set(result.raw[0]) == set(RAW_COLUMNS)
    assert 0 <= result.summary["nrftp"] <= 4
    assert all(0.0 <= r["ce"] <= 100.0 for r in result.raw)


def test_run_cell_deterministic():
    spec = ScenarioSpec(n=2, S=2, N=60, sigma=0.2, repetitions=3, restarts=4, seed=8)
    a, b = run_cell(spec), run_cell(spec)
    for ra, rb in zip(a.raw, b.raw):
        assert ra["nmse"] == rb["nmse"]
        assert ra["ce"] == rb["ce"]
        assert ra["objective"] == rb["objective"]


def test_noise_free_cell_recovers_exactly():
    # whenever the solver reaches an exact fit, the parameter error is
    # indistinguishable from zero
    spec = ScenarioSpec(n=2, S=2, N=300, sigma=0.0, repetitions=4, restarts=10, seed=3)
    result = run_cell(spec)
    for row in result.raw:
        if row["objective"] < 1e-12:
            assert row["nmse"] <= 1e-18
    assert result.summary["nrftp"] == 4


def test_single_init_large_sample_classification_error():
    # single random initialization on a large sample: typical CE a few
    # tenths of a percent, occasional failed repetitions allowed
    spec = ScenarioSpec(n=2, S=2, N=10000, sigma=0.1, repetitions=5, restarts=1, seed=2)
    result = run_cell(spec)
    assert float(np.median([r["ce"] for r in result.raw])) < 1.5


@pytest.mark.parametrize("sigma", [-0.1, float("nan")])
def test_bad_sigma_rejected(sigma):
    with pytest.raises(ValueError, match="sigma"):
        ScenarioSpec(n=2, S=2, N=40, sigma=sigma, repetitions=1, restarts=1)


def test_grid_with_a_bad_sigma_fails_before_its_first_fit(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "bcd_solve", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="sigma must be finite and nonnegative, got nan"):
        run_bench(
            [
                ScenarioSpec(2, 2, 40, repetitions=1),
                ScenarioSpec(2, 2, 40, sigma=float("nan"), repetitions=1),
            ]
        )
    assert calls == []


def _failing(data, cfg):
    raise SolverFailure(f"all {cfg.restarts} restarts degenerated (clusters kept emptying)")


def test_failed_repetition_is_a_row_the_summary_skips(monkeypatch):
    spec = ScenarioSpec(n=2, S=2, N=60, sigma=0.0, repetitions=3, restarts=2, seed=5)
    real, calls = bench.bcd_solve, []

    def second_fails(data, cfg):
        calls.append(cfg)
        return (_failing if len(calls) == 2 else real)(data, cfg)

    monkeypatch.setattr(bench, "bcd_solve", second_fails)
    result = run_cell(spec)
    ok, failed = [result.raw[0], result.raw[2]], result.raw[1]
    assert failed["error"] == "all 2 restarts degenerated (clusters kept emptying)"
    assert all(math.isnan(failed[key]) for key in ("ce", "nmse", "objective"))
    assert failed["time"] >= 0.0 and all(row["error"] == "" for row in ok)
    for key in ("ce", "nmse"):
        values = np.array([row[key] for row in ok])
        assert result.summary[f"{key}_mean"] == float(values.mean())
        assert result.summary[f"{key}_std"] == float(values.std())
    # the failed row keeps its time, so the time statistics count it
    assert result.summary["time_mean"] == float(np.mean([row["time"] for row in result.raw]))
    # noise-free data: both fits that ran recover the parameters
    assert result.summary["nrftp"] == 2

    monkeypatch.setattr(bench, "bcd_solve", _failing)
    summary = run_cell(spec).summary
    for key in ("ce_mean", "ce_std", "nmse_mean", "nmse_std"):
        assert math.isnan(summary[key]), key
    assert summary["nrftp"] == 0 and summary["time_mean"] >= 0.0


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        run_bench([])


@pytest.mark.parametrize(
    "table_id", ["table1", "example2-fit", "example2-seven", "example1-oracle"]
)
def test_repro_references_match(table_id):
    assert repro(table_id) == []


def test_repro_unknown_id():
    with pytest.raises(ValueError):
        repro("table9")


def test_cell_beyond_alignment_limit_rejected():
    with pytest.raises(ValueError, match=r"cell \(1,9,50\).*S <= 8"):
        ScenarioSpec(n=1, S=9, N=50)
    assert ScenarioSpec(n=1, S=8, N=50).S == 8


@pytest.mark.parametrize(
    "cell, message",
    [
        ((0, 2, 40), "n must be >= 1"),
        ((2, 0, 40), "S must be >= 1"),
        ((2, 2, 0), "N must be >= 1"),
        ((2, 5, 3), "need at least S=5 samples, got N=3"),
        # n, S, N, sigma, repetitions, restarts
        ((2, 2, 40, 0.1, 20, 0), "restarts must be >= 1, got 0"),
        ((2, 2, 40, 0.1, 20, 10_001), "restarts must be <= 10000, got 10001"),
    ],
)
def test_cell_that_cannot_run_rejected(cell, message):
    # at construction, not when run_cell reaches the cell
    with pytest.raises(ValueError, match=message):
        ScenarioSpec(*cell)
    assert ScenarioSpec(n=2, S=3, N=3).N == 3


@pytest.mark.parametrize("repetitions", [0, -1])
def test_repetitions_below_one_rejected(repetitions):
    with pytest.raises(ValueError, match="repetitions must be >= 1"):
        ScenarioSpec(n=2, S=2, N=40, repetitions=repetitions)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be None or >= 0, got -1"):
        ScenarioSpec(n=2, S=2, N=40, seed=-1)


@pytest.mark.parametrize("field", ["n", "S", "N", "repetitions", "restarts", "seed"])
def test_non_integer_counts_rejected(field):
    kwargs = dict(n=2, S=2, N=40, repetitions=1, restarts=1)
    with pytest.raises(TypeError, match=f"{field} must be an integer, got 2.0"):
        ScenarioSpec(**(kwargs | {field: 2.0}))
    spec = ScenarioSpec(**(kwargs | {field: np.int64(2)}))
    assert type(getattr(spec, field)) is int
