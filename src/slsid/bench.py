"""Seeded Monte-Carlo sweeps and reference reproductions.

``run_bench`` drives repeated randomized fits over a grid of scenario cells
and reports per-cell summary statistics (runtime, classification error,
normalized parameter error, and the count of repetitions that recovered the
true parameters); every cell draws its data on ``generate_random_scenario``'s
default parameter range.  ``repro`` regenerates stored reference results (the
sample-count table and the outcomes on the bundled fixtures) and returns a
list of mismatches, empty on success.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .bcd import MAX_RESTARTS, SolverConfig, SolverFailure, bcd_solve
from .metrics import MAX_ALIGN_S, classification_error, nmse
from .model import _count, _draw_trial, _need_samples, _noise, _seed
from .oracle import oracle_global, same_param_set, unique_optimum
from .pe import min_samples_bako, min_samples_ours, min_samples_table, min_samples_vidal, pe_report

SUMMARY_COLUMNS = [
    "n",
    "N",
    "S",
    "time_mean",
    "time_std",
    "ce_mean",
    "ce_std",
    "nmse_mean",
    "nmse_std",
    "nrftp",
]
RAW_COLUMNS = ["n", "S", "N", "rep", "time", "ce", "nmse", "objective", "error"]
_NMSE_SUCCESS = 1e-4


@dataclass(frozen=True)
class ScenarioSpec:
    """One Monte-Carlo cell: problem size, noise, and repetition count.

    A ``sigma`` of 0 means noise-free data.  A repetition counts toward the
    cell's nrftp when its NMSE is below the fixed 1e-4.  n, S, N,
    repetitions and restarts are counts of at least 1 and seed a seed, as
    the ``model`` docstring states them, restarts is at most
    ``bcd.MAX_RESTARTS``, S <= N, and sigma is finite and
    nonnegative, all checked when the spec is built, so a grid fails
    before its first fit.
    """

    n: int
    S: int
    N: int
    sigma: float = 0.1
    repetitions: int = 20
    restarts: int = 10
    seed: int | None = 0

    def __post_init__(self):
        for name in ("n", "S", "N", "repetitions"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        object.__setattr__(self, "restarts", _count("restarts", self.restarts, 1, MAX_RESTARTS))
        object.__setattr__(self, "seed", _seed(self.seed))
        _need_samples(self.S, self.N)
        _noise(self.sigma)
        # scoring aligns labels by trying every permutation
        if self.S > MAX_ALIGN_S:
            raise ValueError(
                f"cell ({self.n},{self.S},{self.N}): exhaustive alignment "
                f"supports S <= {MAX_ALIGN_S}"
            )


@dataclass(frozen=True)
class SweepResult:
    """Per-cell summary plus the raw per-repetition rows."""

    spec: ScenarioSpec
    summary: dict
    raw: list[dict]


def run_cell(spec: ScenarioSpec) -> SweepResult:
    """Run one cell: repeated generate/fit/score with derived seeds.

    Solver failures are recorded in the raw rows (with NaN metrics) rather
    than raised.  Timing covers the solver call only.
    """
    raw = []
    for rep in range(spec.repetitions):
        model, data, solver_seed = _draw_trial(
            spec.n, spec.S, spec.N, spec.sigma, spec.seed, (spec.n, spec.S, spec.N, rep)
        )
        cfg = SolverConfig(S=spec.S, restarts=spec.restarts, seed=solver_seed)
        row = {"n": spec.n, "S": spec.S, "N": spec.N, "rep": rep}
        start = time.perf_counter()
        try:
            report = bcd_solve(data, cfg)
        except SolverFailure as exc:
            row.update(
                time=time.perf_counter() - start,
                ce=float("nan"),
                nmse=float("nan"),
                objective=float("nan"),
                error=str(exc),
            )
            raw.append(row)
            continue
        elapsed = time.perf_counter() - start
        err, perm = nmse(report.model, model)
        ce = classification_error(report.assignment, data.truth, perm)
        row.update(
            time=elapsed,
            ce=100.0 * ce,
            nmse=err,
            objective=report.objective,
            error="",
        )
        raw.append(row)

    def stats(key):
        vals = np.array([r[key] for r in raw if not np.isnan(r[key])])
        if vals.size == 0:
            return float("nan"), float("nan")
        return float(vals.mean()), float(vals.std())

    time_mean, time_std = stats("time")
    ce_mean, ce_std = stats("ce")
    nmse_mean, nmse_std = stats("nmse")
    nrftp = sum(
        1 for r in raw if not np.isnan(r["nmse"]) and r["nmse"] < _NMSE_SUCCESS
    )
    summary = {
        "n": spec.n,
        "N": spec.N,
        "S": spec.S,
        "time_mean": time_mean,
        "time_std": time_std,
        "ce_mean": ce_mean,
        "ce_std": ce_std,
        "nmse_mean": nmse_mean,
        "nmse_std": nmse_std,
        "nrftp": nrftp,
    }
    return SweepResult(spec=spec, summary=summary, raw=raw)


def run_bench(specs: list[ScenarioSpec]) -> list[SweepResult]:
    if not specs:
        raise ValueError("empty scenario grid")
    return [run_cell(spec) for spec in specs]


# --------------------------------------------------------------------------
# Reference reproductions
# --------------------------------------------------------------------------

# Minimum-sample-count reference grid for n = 1..10, S = 1..7, stored as
# (ours, bako, vidal) per cell.
TABLE1_EXPECTED = {}
_TABLE1_ROWS = """
1  1/1/1 2/4/2 3/9/3 4/16/4 5/25/5 6/36/6 7/49/7
2  2/2/2 5/8/5 9/18/9 14/32/14 20/50/20 27/72/27 35/98/35
3  3/3/3 8/12/9 15/27/19 24/48/34 35/75/55 48/108/83 63/147/119
4  4/4/4 11/16/14 21/36/34 34/64/69 50/100/125 69/144/209 91/196/329
5  5/5/5 14/20/20 27/45/55 44/80/125 65/125/251 90/180/461 119/245/791
6  6/6/6 17/24/27 33/54/83 54/96/209 80/150/461 111/216/923 147/294/1715
7  7/7/7 20/28/35 39/63/119 64/112/329 95/175/791 132/252/1715 175/343/3431
8  8/8/8 23/32/44 45/72/164 74/128/494 110/200/1286 153/288/3002 203/392/6434
9  9/9/9 26/36/54 51/81/219 84/144/714 125/225/2001 174/324/5004 231/441/11439
10 10/10/10 29/40/65 57/90/285 94/160/1000 140/250/3002 195/360/8007 259/490/19447
"""
for _line in _TABLE1_ROWS.strip().splitlines():
    _parts = _line.split()
    _n = int(_parts[0])
    for _S, _cell in enumerate(_parts[1:], start=1):
        TABLE1_EXPECTED[(_n, _S)] = tuple(int(v) for v in _cell.split("/"))

SPOT_EXPECTED = {(10, 10): (505, 1000, 184755)}

EXAMPLE2_ALT_PARAMS = np.array([[-1.4, 2.8, 4.0], [-2.0, -2.0, 4.0]])
EXAMPLE1_ALT_PARAMS = np.array([[-0.5, 1.0], [1.0, 5.5]])


def repro_table1() -> list[str]:
    mismatches = []
    table = min_samples_table(10, 7)
    for key, expected in TABLE1_EXPECTED.items():
        got = table[key]
        if (got.ours, got.bako, got.vidal) != expected:
            mismatches.append(f"cell {key}: got {got}, expected {expected}")
    for (n, S), expected in SPOT_EXPECTED.items():
        got = (min_samples_ours(n, S), min_samples_bako(n, S), min_samples_vidal(n, S))
        if got != expected:
            mismatches.append(f"spot ({n},{S}): got {got}, expected {expected}")
    return mismatches


def repro_example2_fit() -> list[str]:
    mismatches = []
    model, data = fixtures.example_two()
    report = bcd_solve(data, SolverConfig(S=2, restarts=10, seed=1))
    if not report.objective < 1e-12:
        mismatches.append(f"objective {report.objective} not < 1e-12")
    err, perm = nmse(report.model, model)
    aligned = report.model.params[np.argsort(perm)]
    if not np.allclose(aligned, model.params, rtol=0.0, atol=1e-9):
        mismatches.append(f"parameters off: {report.model.params}")
    if classification_error(report.assignment, data.truth, perm) != 0.0:
        mismatches.append(f"labels off: {report.assignment.labels}")
    return mismatches


def repro_example2_seven() -> list[str]:
    mismatches = []
    model, data = fixtures.example_two_seven()
    _, classes = oracle_global(data, 2)
    if unique_optimum(classes):
        mismatches.append("seven-sample instance reported unique")
    exact = [c for c in classes if abs(c.objective) <= 1e-12]
    for expected in (model.params, EXAMPLE2_ALT_PARAMS):
        if not any(same_param_set(c.params, expected) for c in exact):
            mismatches.append(f"missing optimal class {expected.tolist()}")
    return mismatches


def repro_example1_oracle() -> list[str]:
    mismatches = []
    model, data = fixtures.example_one()
    report = pe_report(data, model)
    if report.cond3_partition.passed:
        mismatches.append("partition condition unexpectedly certified")
    if not (report.cond1_distinct_params and report.cond2_no_separating_regressor):
        mismatches.append("conditions 1-2 should hold on the base fixture")
    optimum, classes = oracle_global(data, 2)
    clean = [c for c in classes if not c.degenerate]
    if abs(optimum) > 1e-12:
        mismatches.append(f"optimum {optimum} not ~0")
    if len(clean) < 2:
        mismatches.append(f"expected >= 2 clean optimal classes, got {len(clean)}")
    for expected in (model.params, EXAMPLE1_ALT_PARAMS):
        if not any(same_param_set(c.params, expected) for c in clean):
            mismatches.append(f"missing optimal class {expected.tolist()}")
    model_aug, data_aug = fixtures.example_one_augmented()
    report_aug = pe_report(data_aug, model_aug)
    if not report_aug.certified:
        mismatches.append("augmented fixture not certified")
    if not unique_optimum(oracle_global(data_aug, 2)[1]):
        mismatches.append("augmented fixture not unique")
    return mismatches


REPRO = {
    "table1": repro_table1,
    "example2-fit": repro_example2_fit,
    "example2-seven": repro_example2_seven,
    "example1-oracle": repro_example1_oracle,
}


def repro(table_id: str) -> list[str]:
    """Regenerate a stored reference; returns mismatch descriptions."""
    if table_id not in REPRO:
        raise ValueError(f"unknown repro id {table_id!r}; choose from {tuple(REPRO)}")
    return REPRO[table_id]()
