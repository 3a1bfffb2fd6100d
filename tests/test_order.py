import math

import numpy as np
import pytest

from slsid import (
    Assignment,
    NoiseSpec,
    OrderSelectConfig,
    SLModel,
    SolverConfig,
    SolverFailure,
    SweepScenario,
    bcd_solve,
    consistency_sweep,
    generate_random_scenario,
    objective_integer,
    select_order,
    simulate,
)
from slsid import fixtures


def _config(s_bar, penalty="auto", restarts=8, seed=0):
    return OrderSelectConfig(
        S_bar=s_bar,
        penalty=penalty,
        solver=SolverConfig(S=1, restarts=restarts, seed=seed),
    )


def _check_one_call_per_candidate(monkeypatch, data, cfg):
    """Run ``select_order`` and check the one-call-per-candidate contract.

    One ``bcd_solve`` call per candidate, with one extra restart from S'=2
    on; a candidate keeps the previous report exactly when its call fails
    or ends above it; fit terms exactly non-increasing; the winner has the
    chosen count; every candidate's objective is ``objective_integer`` of
    its own pair.
    """
    from slsid import order

    calls, results = [], []

    def counted_solve(data, solver_cfg):
        calls.append((solver_cfg.S, solver_cfg.restarts))
        results.append(None)  # stays None when the call raises
        results[-1] = bcd_solve(data, solver_cfg)
        return results[-1]

    monkeypatch.setattr(order, "bcd_solve", counted_solve)
    report = select_order(data, cfg)
    R = cfg.solver.restarts
    assert calls == [(1, R)] + [(s, R + 1) for s in range(2, cfg.S_bar + 1)]
    for prev, cand, fresh in zip(report.candidates, report.candidates[1:], results[1:]):
        kept = fresh is None or fresh.objective > prev.report.objective
        assert cand.report is (prev.report if kept else fresh), cand.S
    fits = [c.fit_term for c in report.candidates]
    assert all(b <= a for a, b in zip(fits, fits[1:])), fits
    assert report.winner.model.S == report.chosen_S
    for cand in report.candidates:
        got = cand.report
        assert got.model.S <= cand.S
        assert got.objective == objective_integer(data, got.model, got.assignment), cand.S
    return report


class TestSelectOrder:
    def test_noise_free_fixture_picks_two(self):
        _, data = fixtures.example_two()
        report = select_order(data, _config(4, penalty=math.log(8) / 8, seed=1))
        assert report.chosen_S == 2
        fits = {c.S: c.fit_term for c in report.candidates}
        assert fits[1] > report.penalty
        assert fits[2] < 1e-12
        for s in (3, 4):
            assert fits[s] <= fits[2] + 1e-12

    def test_single_system_noise_free(self):
        rng = np.random.default_rng(2)
        model = SLModel(rng.uniform(-3, 3, size=(1, 2)))
        data = simulate(
            model, rng.uniform(-5, 5, size=(30, 2)), Assignment(np.ones(30, int))
        )
        report = select_order(data, _config(3, seed=4))
        assert report.chosen_S == 1

    def test_criterion_decomposition_exact(self):
        _, data = generate_random_scenario(
            2, 2, 120, (-5, 5), NoiseSpec("gaussian", 0.1), 9
        )
        report = select_order(data, _config(3, seed=5))
        for cand in report.candidates:
            assert cand.criterion == cand.fit_term + cand.penalty_term
            assert cand.penalty_term == report.penalty * cand.S
            assert cand.fit_term == cand.report.objective / data.N

    def test_fit_term_monotone_in_candidates(self, monkeypatch):
        for seed in range(4):
            _, data = generate_random_scenario(
                2, 2, 150, (-5, 5), NoiseSpec("gaussian", 0.3), seed
            )
            _check_one_call_per_candidate(monkeypatch, data, _config(4, seed=seed + 50))

    def test_tie_prefers_smaller_count(self):
        # noise-free data, explicit penalty: fits at S' >= 2 are all ~0
        _, data = fixtures.example_two()
        report = select_order(data, _config(4, penalty=1e-30, seed=1))
        assert report.chosen_S == 2

    def test_noisy_recovery_single_trial(self):
        _, data = generate_random_scenario(
            2, 2, 2000, (-5, 5), NoiseSpec("gaussian", 0.1), 42
        )
        report = select_order(data, _config(4, restarts=10, seed=7))
        assert report.chosen_S == 2

    def test_too_small_dataset_rejected(self):
        _, data = fixtures.example_one()
        with pytest.raises(ValueError):
            select_order(data, _config(5))

    def test_invalid_penalty_rejected(self):
        with pytest.raises(ValueError):
            OrderSelectConfig(S_bar=2, penalty=0.0)
        with pytest.raises(ValueError):
            OrderSelectConfig(S_bar=2, penalty="magic")

    @pytest.mark.parametrize("penalty", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_penalty_rejected(self, penalty):
        with pytest.raises(ValueError, match="finite and positive"):
            OrderSelectConfig(S_bar=2, penalty=penalty)


class TestConsistencySweep:
    def test_upper_bound_violation_flagged(self):
        with pytest.raises(ValueError, match="upper-bound"):
            consistency_sweep(
                SweepScenario(n=2, S=3, sigma=0.1), [100], 2, _config(2)
            )

    def test_too_small_N_rejected_before_any_trial(self, monkeypatch):
        from slsid import order

        calls = []
        monkeypatch.setattr(order, "select_order", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"need at least S_bar=4 samples, got N=3"):
            consistency_sweep(SweepScenario(n=2, S=2, sigma=0.1), [3000, 3], 5, _config(4))
        assert calls == []

    def test_noise_free_recovery_is_total(self):
        rows = consistency_sweep(
            SweepScenario(n=2, S=2, sigma=0.0), [40, 80], 4, _config(3), seed=3
        )
        assert [r["recovery_rate"] for r in rows] == [1.0, 1.0]
        assert all(r["trials"] == 4 for r in rows)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            SweepScenario(n=2, S=2, sigma=sigma)

    def test_rows_shape(self):
        rows = consistency_sweep(
            SweepScenario(n=2, S=2, sigma=0.1), [60], 2, _config(3), seed=1
        )
        assert rows[0]["N"] == 60
        assert 0.0 <= rows[0]["recovery_rate"] <= 1.0


def test_noise_free_fallbacks_keep_every_candidate(monkeypatch):
    # noise-free n=1 data: at S'=3 and S'=4 every restart degenerates, the
    # warm one too (the repair fills its empty new cluster, which empties
    # again), so both keep S'=2's report and its rounding-level fit
    _, data = generate_random_scenario(1, 2, 10, noise=NoiseSpec(), seed=0)
    report = _check_one_call_per_candidate(monkeypatch, data, _config(4, restarts=3, seed=0))
    assert report.chosen_S == 2
    two, three, four = report.candidates[1:]
    for s_prime in (3, 4):
        warm = SolverConfig(S=s_prime, restarts=4, seed=0, init_labels=two.report.assignment)
        with pytest.raises(SolverFailure, match="all 4 restarts degenerated"):
            bcd_solve(data, warm)
    assert (two.report.restart_index, two.report.degenerate_restarts) == (0, 0)
    assert three.report is two.report and four.report is two.report
    # 3.2e-31 here: noise-free, so zero up to the rounding of the fits
    assert three.fit_term == four.fit_term == two.fit_term < 1e-30


def test_noise_free_pool_keeps_one_call_per_candidate(monkeypatch):
    kept = 0
    for seed in range(12):
        n, S = 1 + seed % 3, 1 + seed // 4
        _, data = generate_random_scenario(n, S, 8 + 2 * seed, noise=NoiseSpec(), seed=seed)
        cfg = _config(4, restarts=3, seed=seed)
        report = _check_one_call_per_candidate(monkeypatch, data, cfg)
        kept += sum(c.report.model.S < c.S for c in report.candidates)
    # the pool is meant to hold candidates that fell back to the previous fit
    assert kept > 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: OrderSelectConfig(S_bar=0), "S_bar must be >= 1"),
        (lambda: SweepScenario(0, 2, 0.1), "n must be >= 1, got 0"),
        (lambda: SweepScenario(2, 0, 0.1), "S must be >= 1, got 0"),
        (
            lambda: consistency_sweep(SweepScenario(n=2, S=2, sigma=0.1), [40], 0, _config(2)),
            "trials must be >= 1",
        ),
        (
            lambda: consistency_sweep(SweepScenario(2, 2, 0.1), [40], 1, _config(2), seed=-1),
            "seed must be None or >= 0, got -1",
        ),
    ],
)
def test_counts_below_one_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: OrderSelectConfig(S_bar=2.5), "S_bar must be an integer, got 2.5"),
        (lambda: SweepScenario(2, 2.5, 0.1), "S must be an integer, got 2.5"),
        (lambda: SweepScenario(2.0, 2, 0.1), "n must be an integer, got 2.0"),
        (
            lambda: consistency_sweep(SweepScenario(2, 2, 0.1), [40], 2.5, _config(2)),
            "trials must be an integer, got 2.5",
        ),
        (
            lambda: consistency_sweep(SweepScenario(2, 2, 0.1), [40, 20.0], 1, _config(2)),
            r"N_list\[1\] must be an integer, got 20.0",
        ),
        (
            lambda: consistency_sweep(SweepScenario(2, 2, 0.1), [40], 1, _config(2), seed=1.5),
            "seed must be an integer, got 1.5",
        ),
    ],
)
def test_non_integer_counts_rejected(call, message):
    with pytest.raises(TypeError, match=message):
        call()


def test_counts_stored_as_ints():
    assert OrderSelectConfig(S_bar=np.int64(3)).S_bar == 3
    assert type(OrderSelectConfig(S_bar=np.int64(3)).S_bar) is int
    assert SweepScenario(np.int32(2), True, 0.1) == SweepScenario(2, 1, 0.1)
    rows = consistency_sweep(SweepScenario(1, 1, 0.0), [np.int64(4)], True, _config(1))
    assert rows == [{"N": 4, "trials": 1, "recovery_rate": 1.0}]
    assert type(rows[0]["trials"]) is int and type(rows[0]["N"]) is int
