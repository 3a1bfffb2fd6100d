"""Block-coordinate descent for the relaxed membership problem.

The solver alternates two exact minimizations: per-cluster least squares
for the parameters given the current labels, and a closed-form relabeling
given the parameters (each sample moves to its smallest-residual
subsystem, ties to the smallest index).  The inner relabeling problem of
the penalty relaxation always has a binary minimizer, so the solver works
directly with hard labels and the returned membership is exactly binary.

Each iteration works on sufficient statistics.  ``bcd_solve`` builds the
dataset's moment table once and shares it across restarts, so the
parameter half-step is one membership matmul and one batched Gram solve
(``model.fit_clusters``).  One squared residual matrix per iteration,
computed as ``residual_matrix`` computes it, then gives the fit objective
by a label gather and the relabeling with its objective by a row-wise
minimum, so the reported objective equals ``objective_integer`` bit for
bit.  ``assign_step`` is the same relabeling as a public call; the loop
does not call it.

Each restart is deterministic from a seed derived from the config seed and
the restart index, and returns its own :class:`SolveReport`, or None when
a cluster empties twice; the winner is the restart with the lowest final
objective, ties to the lowest index.  A half-step that raises the
objective beyond rounding raises :class:`DescentError`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Assignment,
    Dataset,
    SLModel,
    fit_clusters,
    moment_table,
    objective_integer,  # unused here; perfbench/tracing.py wraps it under this name
    residual_matrix,
)


class SolverFailure(RuntimeError):
    """Every restart collapsed a cluster; no usable fit was produced."""


class DescentError(RuntimeError):
    """A half-step raised the objective, so an update is broken.

    Carries the restart index, the 1-based iteration, and the objective
    before and after the offending half-step.
    """

    def __init__(self, restart: int, iteration: int, before: float, after: float):
        super().__init__(
            f"restart {restart}, iteration {iteration}: objective rose from "
            f"{before!r} to {after!r}; descent broken"
        )
        self.restart = restart
        self.iteration = iteration
        self.before = before
        self.after = after


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :func:`bcd_solve`.

    Every restart starts from uniform random labels, except restart 0 when
    ``init_labels`` is given: it starts from those.  ``keep_history``
    retains per-iteration parameters and labels of the winning restart for
    trace output.
    """

    S: int
    max_iters: int = 100
    obj_tol: float = 1e-12
    restarts: int = 10
    seed: int | None = 0
    init_labels: Assignment | None = None
    keep_history: bool = False

    def __post_init__(self):
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be >= 1")
        # the negated comparison is True for NaN, which would keep the
        # objective-stall stop from ever firing
        if not self.obj_tol >= 0:
            raise ValueError(f"obj_tol must be >= 0, got {self.obj_tol}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    params: np.ndarray
    labels: np.ndarray
    objective: float


@dataclass(frozen=True)
class SolveReport:
    """Fitted model, labels, and convergence metadata of the best restart.

    ``trace`` holds the objective after every half-step (parameter update,
    then relabeling) of the winning restart and is non-increasing;
    ``objective`` equals the hard-assignment objective of the returned pair
    exactly.
    """

    model: SLModel
    assignment: Assignment
    objective: float
    trace: np.ndarray
    iterations: int
    converged: bool
    restart_index: int
    degenerate_restarts: int
    history: tuple[IterationRecord, ...] | None = None

    def to_dict(self) -> dict:
        return {
            "S": self.model.S,
            "n": self.model.n,
            "params": [[float(v) for v in row] for row in self.model.params],
            "labels": [int(v) for v in self.assignment.labels],
            "objective": self.objective,
            "trace": [float(v) for v in self.trace],
            "iterations": self.iterations,
            "converged": self.converged,
            "restart_index": self.restart_index,
            "degenerate_restarts": self.degenerate_restarts,
        }


def _relabel(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based label of each column's smallest row of ``sq``, and that value.

    Ties go to the smallest index: a column's label counts the rows above
    its minimum before the first row that attains it.
    """
    best = sq.min(axis=0)
    labels = np.zeros(sq.shape[1], dtype=np.intp)
    above = np.ones(sq.shape[1], dtype=bool)
    for row in sq[:-1]:
        above &= row > best
        labels += above
    return labels, best


def assign_step(data: Dataset, model: SLModel) -> Assignment:
    """Relabel every sample to its smallest-residual subsystem.

    Ties break toward the smallest subsystem index, which keeps the update
    deterministic.
    """
    r = residual_matrix(data, model)
    return Assignment(_relabel(r * r)[0] + 1)


def _fit_all(
    data: Dataset,
    labels: np.ndarray,
    S: int,
    reseeded: set[int],
    table: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """Parameter half-step with empty-cluster repair, on 0-based labels.

    Empty clusters are reseeded with the currently worst-fit sample (largest
    residual against its own cluster's fresh parameters); a cluster that has
    to be reseeded twice marks the restart degenerate.  Each repair adds a
    new label to ``reseeded``, so a restart makes at most S repairs.
    Returns the S x n parameter bank and the degeneracy flag.  ``labels`` is
    modified in place when reseeding occurs.
    """
    params, empty_mask = fit_clusters(data, labels, range(S), table=table)
    empty = np.flatnonzero(empty_mask).tolist()

    while empty:
        s = empty.pop(0)
        if s in reseeded:
            return params, True
        reseeded.add(s)
        preds = np.einsum("ij,ij->i", data.regressors, params[labels])
        k = int(np.argmax(np.abs(data.outputs - preds)))
        donor = labels[k]
        labels[k] = s
        params[[s, donor]], now_empty = fit_clusters(data, labels, (s, donor), table=table)
        if now_empty[1]:
            empty.append(donor)
    return params, False


def _run_single(
    data: Dataset, cfg: SolverConfig, init_labels: np.ndarray, table: np.ndarray, restart: int
) -> SolveReport | None:
    """One descent from ``init_labels``: its report, or None if it degenerates."""
    X, y = data.regressors, data.outputs
    samples = np.arange(data.N)
    labels = init_labels - 1
    reseeded: set[int] = set()
    trace: list[float] = []
    history: list[IterationRecord] = []
    converged = False

    def record(value: float) -> None:
        # both half-steps are exact minimizations, so the objective may not
        # rise beyond rounding; a violation means a broken update
        if trace and value > trace[-1] + 1e-9 * (1.0 + abs(trace[-1])):
            raise DescentError(restart, iteration, trace[-1], value)
        trace.append(value)

    for iteration in range(1, cfg.max_iters + 1):
        params, degenerate = _fit_all(data, labels, cfg.S, reseeded, table)
        # squared residual_matrix, computed as it does, so both objectives
        # below equal objective_integer bit for bit
        sq = params @ X.T
        np.subtract(y, sq, out=sq)
        np.multiply(sq, sq, out=sq)
        record(float(np.sum(sq.take(labels * data.N + samples))))
        if degenerate:
            return None
        new, minima = _relabel(sq)
        obj = float(np.sum(minima))
        record(obj)
        unchanged = np.array_equal(new, labels)
        labels = new
        if cfg.keep_history:
            history.append(IterationRecord(iteration, params.copy(), labels + 1, obj))
        if unchanged:
            converged = True
            break
        if len(trace) >= 4 and trace[-3] - trace[-1] < cfg.obj_tol:
            converged = True
            break

    return SolveReport(
        model=SLModel(params),
        assignment=Assignment(labels + 1),
        objective=trace[-1],
        trace=np.asarray(trace),
        iterations=iteration,
        converged=converged,
        restart_index=restart,
        degenerate_restarts=0,
        history=tuple(history) if cfg.keep_history else None,
    )


def bcd_solve(data: Dataset, cfg: SolverConfig) -> SolveReport:
    """Best-of-restarts block-coordinate descent.

    Runs ``cfg.restarts`` independent descents and returns the report of
    the one with the lowest final objective, with the count of degenerate
    restarts.  Raises :class:`SolverFailure` when every
    restart degenerates (a cluster emptied twice), :class:`DescentError`
    when a half-step raises the objective, and ValueError when the
    dataset has fewer samples than subsystems.
    """
    if data.N < cfg.S:
        raise ValueError(f"need at least S={cfg.S} samples, got N={data.N}")
    table = moment_table(data)
    best: SolveReport | None = None
    degenerate_count = 0
    for r in range(cfg.restarts):
        if cfg.init_labels is not None and r == 0:
            cfg.init_labels.validate(data.N, cfg.S)
            init = cfg.init_labels.labels.copy()
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))
            )
            init = rng.integers(1, cfg.S + 1, size=data.N)
        report = _run_single(data, cfg, init, table, r)
        if report is None:
            degenerate_count += 1
        elif best is None or report.objective < best.objective:
            best = report
    if best is None:
        raise SolverFailure(
            f"all {cfg.restarts} restarts degenerated (clusters kept emptying)"
        )
    return replace(best, degenerate_restarts=degenerate_count)


def stationarity_check(data: Dataset, report: SolveReport) -> bool:
    """Whether one more full descent round leaves the report unchanged.

    Refits every cluster of the reported assignment and reruns the
    relabeling; a fixed point reproduces both blocks (parameters bitwise up
    to refit rounding, labels exactly).
    """
    params, empty = fit_clusters(
        data, report.assignment.labels, range(1, report.model.S + 1)
    )
    if empty.any():
        return False
    if not np.allclose(params, report.model.params, rtol=0.0, atol=1e-12):
        return False
    redo = assign_step(data, SLModel(params))
    return bool(np.array_equal(redo.labels, report.assignment.labels))
