"""Subsystem-count selection by penalized fit.

For each candidate count S' up to an upper bound, the solver fit yields the
mean squared residual; the selected count minimizes fit + lambda * S'.  With
lambda shrinking like log(N)/N (slower than 1/N) the estimate converges to
the true count as N grows, which the Monte-Carlo sweep checks empirically.

Each candidate beyond the first is one solver call with one extra restart,
started from the previous candidate's labels: the new cluster starts empty,
and the descent's empty-cluster repair moves the worst-fit sample into it.
A candidate whose call fails or ends above the previous fit keeps the
previous report, so the fit term is exactly non-increasing in S'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .bcd import SolveReport, SolverConfig, SolverFailure, bcd_solve
from .model import Dataset, _count, _draw_trial, _need_samples, _noise, _seed

TIE_TOL = 1e-12
AUTO_SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class OrderSelectConfig:
    """Candidate range, penalty schedule, and per-candidate solver template.

    ``penalty`` is either an explicit finite positive value of lambda or
    "auto", meaning ``sigma2_hat * log(N) / N`` with sigma2_hat the
    mean squared residual of the single-subsystem fit, floored away from
    zero so the penalty stays positive on noise-free data.  That residual
    measures the output variance a switch-free model cannot explain, so the
    penalty is scale-free in the data; a noise-level estimate (e.g. the
    S_bar-candidate residual) is far too small here, because refitting the
    assignment lets surplus clusters absorb an N-independent share of the
    noise variance.  The template's S and init_labels are set per
    candidate, and every S' >= 2 runs one restart more than it.  ``S_bar``
    is a count of at least 1 (``model`` docstring).
    """

    S_bar: int
    penalty: float | str = "auto"
    solver: SolverConfig = SolverConfig(S=1)

    def __post_init__(self):
        object.__setattr__(self, "S_bar", _count("S_bar", self.S_bar, 1))
        if isinstance(self.penalty, str):
            if self.penalty != "auto":
                raise ValueError("penalty must be a positive number or 'auto'")
        # chained comparison is False for NaN, so NaN is rejected too
        elif not 0.0 < self.penalty < math.inf:
            raise ValueError(f"penalty must be finite and positive, got {self.penalty}")


@dataclass(frozen=True)
class CandidateResult:
    S: int
    fit_term: float
    penalty_term: float
    criterion: float
    report: SolveReport


@dataclass(frozen=True)
class OrderSelectReport:
    chosen_S: int
    penalty: float
    candidates: tuple[CandidateResult, ...]
    winner: SolveReport

    def to_dict(self) -> dict:
        return {
            "chosen_S": self.chosen_S,
            "penalty": self.penalty,
            "candidates": [
                {
                    "S": c.S,
                    "fit_term": c.fit_term,
                    "penalty_term": c.penalty_term,
                    "criterion": c.criterion,
                }
                for c in self.candidates
            ],
            "winner": self.winner.to_dict(),
        }


def select_order(data: Dataset, cfg: OrderSelectConfig) -> OrderSelectReport:
    """Fit every candidate count and return the penalized-criterion argmin.

    Each S' >= 2 is one :func:`bcd_solve` call whose last restart starts
    from the previous candidate's labels, which leave cluster S' empty for
    the descent's repair to fill with the worst-fit sample; the cold
    restarts keep their seeds and win ties.  A candidate keeps the previous
    candidate's report when its call raises :class:`SolverFailure` or ends
    above the previous objective, so a candidate's report may have fewer
    than S' subsystems: it is the best fit found with at most S'.  Such a
    report never wins (same fit, larger penalty), so ``winner.model.S ==
    chosen_S``.  Ties within 1e-12 go to the smaller count.  Requires
    N >= S_bar.
    """
    _need_samples(cfg.S_bar, data.N, "S_bar")
    # S'=1 cannot degenerate: one cluster holds every sample
    reports = [bcd_solve(data, replace(cfg.solver, S=1, init_labels=None))]
    for s_prime in range(2, cfg.S_bar + 1):
        prev = reports[-1]
        solver_cfg = replace(
            cfg.solver, S=s_prime, restarts=cfg.solver.restarts + 1, init_labels=prev.assignment
        )
        try:
            report = bcd_solve(data, solver_cfg)
        except SolverFailure:
            # exact-fit data offers surplus clusters nothing to hold on to
            report = prev
        reports.append(report if report.objective <= prev.objective else prev)

    N = data.N
    if cfg.penalty == "auto":
        sigma2 = max(reports[0].objective / N, AUTO_SIGMA2_FLOOR)
        penalty = sigma2 * math.log(N) / N
    else:
        penalty = float(cfg.penalty)

    candidates = []
    for s_prime, report in enumerate(reports, start=1):
        fit_term = report.objective / N
        penalty_term = penalty * s_prime
        candidates.append(
            CandidateResult(
                S=s_prime,
                fit_term=fit_term,
                penalty_term=penalty_term,
                criterion=fit_term + penalty_term,
                report=report,
            )
        )
    chosen = candidates[0]
    for cand in candidates[1:]:
        if cand.criterion < chosen.criterion - TIE_TOL:
            chosen = cand
    return OrderSelectReport(
        chosen_S=chosen.S,
        penalty=penalty,
        candidates=tuple(candidates),
        winner=chosen.report,
    )


@dataclass(frozen=True)
class SweepScenario:
    """Data-generating settings for the consistency sweep; parameters and
    regressors are drawn on ``generate_random_scenario``'s default range.
    ``n`` and ``S`` are counts of at least 1 (``model`` docstring) and
    ``sigma`` is finite and nonnegative, 0 for noise-free data."""

    n: int
    S: int
    sigma: float

    def __post_init__(self):
        for name in ("n", "S"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        _noise(self.sigma)


def consistency_sweep(
    scenario: SweepScenario,
    N_list: list[int],
    trials: int,
    cfg: OrderSelectConfig,
    seed: int | None = 0,
) -> list[dict]:
    """Empirical recovery rate of the true count per sample size.

    Each (N, trial) cell draws an independent scenario from a seed derived
    from ``seed`` and runs :func:`select_order`.  Rows are dicts with keys
    N, trials, recovery_rate.  ``trials`` is a count of at least 1, every
    N a count of at least ``cfg.S_bar`` samples (checked before any trial
    runs) and ``seed`` a seed (``model`` docstring).
    """
    trials, seed = _count("trials", trials, 1), _seed(seed)
    N_list = [_count(f"N_list[{i}]", N) for i, N in enumerate(N_list)]
    if cfg.S_bar < scenario.S:
        raise ValueError(
            f"S_bar={cfg.S_bar} is below the true count {scenario.S}; "
            "the upper-bound assumption is violated"
        )
    # select_order's own check, made before any trial runs
    for N in N_list:
        _need_samples(cfg.S_bar, N, "S_bar")
    rows = []
    for i, N in enumerate(N_list):
        hits = 0
        for t in range(trials):
            _, data, solver_seed = _draw_trial(
                scenario.n, scenario.S, N, scenario.sigma, seed, (i, t)
            )
            trial_cfg = replace(cfg, solver=replace(cfg.solver, seed=solver_seed))
            if select_order(data, trial_cfg).chosen_S == scenario.S:
                hits += 1
        rows.append({"N": N, "trials": trials, "recovery_rate": hits / trials})
    return rows
