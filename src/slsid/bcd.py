"""Block-coordinate descent for the relaxed membership problem.

The solver alternates two exact minimizations: per-cluster least squares
for the parameters given the current labels, and a closed-form relabeling
given the parameters (each sample moves to its smallest-residual
subsystem, ties to the smallest index).  The inner relabeling problem of
the penalty relaxation always has a binary minimizer, so the solver works
directly with hard labels and the returned membership is exactly binary.

Each restart is deterministic from a seed derived from the config seed and
the restart index; the winner is the restart with the lowest final
objective, ties to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Assignment,
    Dataset,
    SLModel,
    fit_clusters,
    objective_integer,
    residual_matrix,
)


class SolverFailure(RuntimeError):
    """Every restart collapsed a cluster; no usable fit was produced."""


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
        if self.obj_tol < 0:
            raise ValueError("obj_tol must be >= 0")


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


def assign_step(data: Dataset, model: SLModel) -> Assignment:
    """Relabel every sample to its smallest-residual subsystem.

    Ties break toward the smallest subsystem index, which keeps the update
    deterministic.
    """
    r = residual_matrix(data, model)
    return Assignment(np.argmin(r * r, axis=0) + 1)


def _fit_all(
    data: Dataset,
    labels: np.ndarray,
    S: int,
    reseeded: set[int],
) -> tuple[np.ndarray, bool]:
    """Parameter half-step with empty-cluster repair.

    Empty clusters are reseeded with the currently worst-fit sample (largest
    residual against its own cluster's fresh parameters); a cluster that has
    to be reseeded twice marks the restart degenerate.  Returns the S x n
    parameter bank and the degeneracy flag.  ``labels`` is modified in place
    when reseeding occurs.
    """
    params, _, empty_mask = fit_clusters(data, labels, range(1, S + 1))
    empty = np.flatnonzero(empty_mask).tolist()

    repairs = 0
    while empty:
        s = empty.pop(0)
        if s in reseeded or repairs > S:
            return params, True
        reseeded.add(s)
        repairs += 1
        preds = np.einsum("ij,ij->i", data.regressors, params[labels - 1])
        k = int(np.argmax(np.abs(data.outputs - preds)))
        donor = labels[k] - 1
        labels[k] = s + 1
        params[[s, donor]], _, now_empty = fit_clusters(data, labels, (s + 1, donor + 1))
        if now_empty[1]:
            empty.append(donor)
    return params, False


def _run_single(
    data: Dataset, cfg: SolverConfig, init_labels: np.ndarray
) -> tuple[dict, bool]:
    labels = init_labels.copy()
    reseeded: set[int] = set()
    trace: list[float] = []
    history: list[IterationRecord] = []
    converged = False
    degenerate = False
    params = np.zeros((cfg.S, data.n))
    iteration = 0

    def record(value: float) -> None:
        # both half-steps are exact minimizations, so the objective may not
        # rise beyond rounding; a violation means a broken update
        if trace and value > trace[-1] + 1e-9 * (1.0 + abs(trace[-1])):
            raise AssertionError(
                f"objective rose from {trace[-1]} to {value}; descent broken"
            )
        trace.append(value)

    for iteration in range(1, cfg.max_iters + 1):
        params, degenerate = _fit_all(data, labels, cfg.S, reseeded)
        model = SLModel(params)
        record(objective_integer(data, model, Assignment(labels)))
        if degenerate:
            break
        new = assign_step(data, model)
        obj = objective_integer(data, model, new)
        record(obj)
        unchanged = np.array_equal(new.labels, labels)
        labels = new.labels
        if cfg.keep_history:
            history.append(IterationRecord(iteration, params.copy(), labels.copy(), obj))
        if unchanged:
            converged = True
            break
        if len(trace) >= 4 and trace[-3] - trace[-1] < cfg.obj_tol:
            converged = True
            break

    result = {
        "params": params,
        "labels": labels,
        "objective": trace[-1],
        "trace": np.asarray(trace),
        "iterations": iteration,
        "converged": converged and not degenerate,
        "history": tuple(history) if cfg.keep_history else None,
    }
    return result, degenerate


def bcd_solve(data: Dataset, cfg: SolverConfig) -> SolveReport:
    """Best-of-restarts block-coordinate descent.

    Runs ``cfg.restarts`` independent descents and returns the one with the
    lowest final objective.  Raises :class:`SolverFailure` when every
    restart degenerates (a cluster emptied twice), and ValueError when the
    dataset has fewer samples than subsystems.
    """
    if data.N < cfg.S:
        raise ValueError(f"need at least S={cfg.S} samples, got N={data.N}")
    best: dict | None = None
    best_index = -1
    degenerate_count = 0
    for r in range(cfg.restarts):
        if cfg.init_labels is not None and r == 0:
            init = cfg.init_labels.labels.copy()
            if init.size != data.N:
                raise ValueError("init_labels length does not match dataset")
            if init.max() > cfg.S:
                raise ValueError("init_labels use a label above S")
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))
            )
            init = rng.integers(1, cfg.S + 1, size=data.N)
        result, degenerate = _run_single(data, cfg, init)
        if degenerate:
            degenerate_count += 1
            continue
        if best is None or result["objective"] < best["objective"]:
            best = result
            best_index = r
    if best is None:
        raise SolverFailure(
            f"all {cfg.restarts} restarts degenerated (clusters kept emptying)"
        )
    return SolveReport(
        model=SLModel(best["params"]),
        assignment=Assignment(best["labels"]),
        objective=best["objective"],
        trace=best["trace"],
        iterations=best["iterations"],
        converged=best["converged"],
        restart_index=best_index,
        degenerate_restarts=degenerate_count,
        history=best["history"],
    )


def stationarity_check(data: Dataset, report: SolveReport) -> bool:
    """Whether one more full descent round leaves the report unchanged.

    Refits every cluster of the reported assignment and reruns the
    relabeling; a fixed point reproduces both blocks (parameters bitwise up
    to refit rounding, labels exactly).
    """
    params, _, empty = fit_clusters(
        data, report.assignment.labels, range(1, report.model.S + 1)
    )
    if empty.any():
        return False
    if not np.allclose(params, report.model.params, rtol=0.0, atol=1e-12):
        return False
    redo = assign_step(data, SLModel(params))
    return bool(np.array_equal(redo.labels, report.assignment.labels))
