"""Block-coordinate descent for the relaxed membership problem.

The solver alternates two exact minimizations: per-cluster least squares
for the parameters given the current labels, and a closed-form relabeling
given the parameters (each sample moves to its smallest-residual
subsystem, ties to the smallest index).  The inner relabeling problem of
the penalty relaxation always has a binary minimizer, so the solver works
directly with hard labels and the returned membership is exactly binary.
A restart converges when its labels do not change, or when it stalls: an
iteration lowers its objective by less than the absolute ``_STALL_TOL``.
A report that stopped because its labels did not change is a fixed point:
a restart from its labels stops after one iteration with the same labels.

Each iteration works on sufficient statistics.  ``bcd_solve`` builds the
dataset's moment table once and shares it across restarts, and runs the
restarts in lockstep groups of G = ``_GROUP_CELLS // (S * N)`` (at least
one, at most ``restarts``) that share one G x S x N work buffer, so a small
fit pays numpy's per-call overhead once per group, not once per restart.
An iteration's parameter half-step is one ``model.fit_members`` call on
the group's stack of memberships, with the dataset's rows for the
exact-fit rule (``model`` docstring); it sums the table in blocks of
samples whose size depends on n alone (``model._SUM_BLOCK``), so a
restart's sums are the same in any group.  One stack of squared residual
matrices, each computed in one matmul as ``residual_matrix`` computes it,
then gives every fit objective by a label gather and every relabeling
with its objective by a row-wise minimum, so the reported objective
equals ``objective_integer`` bit for bit.  Labels travel 0-based from
``_start_labels`` to the report in ``np.min_scalar_type(S)``, the smallest
unsigned type that holds S, as the oracle's label strings do, so a
relabeling, membership build or label comparison moves one byte per
sample up to S = 255; every report widens them to ``int``.  Each step
computes, slice by slice, what a lone restart computes, so results do not
depend on G.  A restart whose labels leave a cluster empty is repaired on
its own.  ``assign_step`` is the same relabeling as a function; the loop does not
call it.

Each restart is deterministic from a seed derived from the config seed and
the restart index.  It leaves its group when it converges, stalls, reaches
``max_iters``, degenerates (a cluster empties twice) or raises, and hands
back its objective, labels, parameters, trace and history, or nothing when
it degenerated.  ``bcd_solve`` copies the labels and parameters of the
running best only, the lowest final objective with ties to the lowest
index, and builds one :class:`SolveReport`, for the winner, so its memory
does not grow with the number of restarts.  An iteration converts its
objectives and flags to Python lists once for the whole group, and looks
for empty clusters only in restarts with a cluster that fails the rank
test and fits theta = 0, as an empty one does.  A half-step that raises the objective beyond
rounding raises :class:`DescentError`, for the lowest failing restart of
the group, as a one-at-a-time run would.
With ``keep_history`` every restart of the running group keeps its
per-iteration history until the group ends, when all but the winner's
are dropped.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Assignment,
    Dataset,
    SLModel,
    _count,
    _need_samples,
    _seed,
    fit_members,
    moment_table,
    objective_integer,  # unused here; perfbench/tracing.py wraps it under this name
    residual_matrix,
)


# Restarts run in lockstep groups of G = _GROUP_CELLS // (S * N), at least
# one and at most ``restarts``, so a group's G x S x N work buffer holds at
# most this many floats (1 MiB) unless one restart alone needs more.  The
# value was measured on the benchmark's select workload: 2**16 left a
# longer tail latency, 2**18 added more peak memory for little speed.
_GROUP_CELLS = 2**17
# the most restarts that start from random labels.  The descent runs every
# restart, so its time grows with the count: on 8 rows at S = 2 a restart
# takes 30-40 us, so 10^4 take about 0.3 s, and 10^6 took 36 s
MAX_RESTARTS = 10_000
# a restart stalls, and stops as converged, once an iteration (both
# half-steps) lowers its objective by less than this
_STALL_TOL = 1e-12


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

    Every restart starts from uniform random labels, except the last one
    that runs when ``init_labels`` is given: it starts from those, and the
    others draw the same starts as without it.  ``keep_history``
    retains per-iteration parameters and labels of the winning restart for
    trace output; while a group of restarts runs, each of them keeps its
    own.  The stall stop is the constant ``_STALL_TOL``, not a field.
    ``S``, ``max_iters`` and ``restarts`` are counts of at least 1 and
    ``seed`` a seed, as the ``model`` docstring states them.  At most
    ``MAX_RESTARTS`` restarts start from random labels, so ``restarts`` is
    at most ``MAX_RESTARTS``, or one more with ``init_labels``, whose
    restart is the extra one (``select_order`` adds it to a candidate's
    count).
    """

    S: int
    max_iters: int = 100
    restarts: int = 10
    seed: int | None = 0
    init_labels: Assignment | None = None
    keep_history: bool = False

    def __post_init__(self):
        for name in ("S", "max_iters"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        most = MAX_RESTARTS + (self.init_labels is not None)
        object.__setattr__(self, "restarts", _count("restarts", self.restarts, 1, most))
        object.__setattr__(self, "seed", _seed(self.seed))


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
    """Relabeling of squared residuals ``sq``: labels and objective.

    ``sq`` is S x N, or a stack of such matrices along leading axes.  Each
    column gets the 0-based index of its smallest row, ties to the smallest
    index: a column's label counts the rows above its minimum before the
    first row that attains it, into ``np.min_scalar_type(S)``, which holds
    every count up to S - 1.  The objective sums the column minima.
    """
    S = sq.shape[-2]
    best = sq.min(axis=-2)
    labels = np.zeros(best.shape, dtype=np.min_scalar_type(S))
    above = np.ones(best.shape, dtype=bool)
    greater = np.empty(best.shape, dtype=bool)
    for s in range(S - 1):
        above &= np.greater(sq[..., s, :], best, out=greater)
        labels += above
    return labels, np.sum(best, axis=-1)


def assign_step(data: Dataset, model: SLModel) -> Assignment:
    """Relabel every sample to its smallest-residual subsystem.

    Ties break toward the smallest subsystem index, which keeps the update
    deterministic.
    """
    r = residual_matrix(data, model)
    return Assignment(_relabel(r * r)[0] + 1)


def _repair_empty(
    data: Dataset,
    labels: np.ndarray,
    params: np.ndarray,
    empty: list[int],
    reseeded: set[int],
    table: np.ndarray,
) -> bool:
    """Empty-cluster repair of one restart's parameter half-step.

    A group's parameter step fits every restart at once; only a restart
    left with an empty cluster comes here, one at a time.  ``params`` is
    its S x n slice of the group's fit, and ``empty`` lists its empty
    clusters in ascending order.  Each is reseeded with the currently
    worst-fit sample (largest residual against its own cluster's fresh
    parameters), and the two clusters that changed are refitted with
    ``fit_members``, the group's kernel, with the rows; a cluster that has
    to be reseeded twice marks the restart degenerate.  Each repair adds a
    new label to ``reseeded``, so a restart makes at most S repairs.
    ``labels`` and ``params`` are modified in place; returns the degeneracy
    flag.
    """
    while empty:
        s = empty.pop(0)
        if s in reseeded:
            return True
        reseeded.add(s)
        preds = np.einsum("ij,ij->i", data.regressors, params[labels])
        k = int(np.argmax(np.abs(data.outputs - preds)))
        donor = int(labels[k])
        labels[k] = s
        member = (labels == np.array([[s], [donor]], dtype=labels.dtype)).astype(float)
        params[[s, donor]], _ = fit_members(table, member, data.n, data)
        if not member[1].any():
            empty.append(donor)
    return False


def _record(trace: list[float], value: float, restart: int, iteration: int) -> None:
    # both half-steps are exact minimizations, so the objective may not
    # rise beyond rounding; a violation means a broken update
    if trace and value > trace[-1] + 1e-9 * (1.0 + abs(trace[-1])):
        raise DescentError(restart, iteration, trace[-1], value)
    trace.append(value)


def _label_sums(sq: np.ndarray, labels: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per restart i, the sum over samples k of ``sq[i, labels[i, k], k]``.

    ``offsets[i, k]`` is the flat index ``i * S * N + k`` of sample k in
    slice i of ``sq``.  The narrow labels are widened to ``intp`` once, in
    the multiply: a bare ``labels * N`` would compute in their type, which
    overflows for small N and raises for an N it cannot hold.
    """
    flat = np.multiply(labels, sq.shape[-1], dtype=np.intp)
    flat += offsets
    return np.sum(sq.take(flat), axis=1)


def _start_labels(data: Dataset, cfg: SolverConfig, first: int, count: int) -> np.ndarray:
    """0-based start labels of restarts first to first + count - 1, by row.

    Restart r draws uniform labels from a seed derived from the config seed
    and r; the last restart takes ``cfg.init_labels`` instead when it is
    given.  Each draw is the int64 one, so the streams do not depend on S's
    width; the rows are ``np.min_scalar_type(S)``, which holds every label.
    """
    init = np.empty((count, data.N), dtype=np.min_scalar_type(cfg.S))
    for i, r in enumerate(range(first, first + count)):
        if cfg.init_labels is not None and r == cfg.restarts - 1:
            cfg.init_labels.validate(data.N, cfg.S)
            init[i] = cfg.init_labels.labels
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(r,))
            )
            init[i] = rng.integers(1, cfg.S + 1, size=data.N)
    init -= 1
    return init


def _run_group(
    data: Dataset,
    cfg: SolverConfig,
    first: int,
    count: int,
    table: np.ndarray,
    work: np.ndarray,
) -> Iterator[tuple[int, tuple | None]]:
    """Descents of restarts ``first`` to ``first + count - 1``, in lockstep.

    ``work`` is a G x S x N buffer with G >= count: it holds the float
    membership until the parameter step has summed it, then the squared
    residuals.  Each iteration takes every half-step once for the whole
    stack of restarts still descending; a restart leaves the stack when it
    converges, stalls, reaches ``max_iters``, degenerates or raises.  Every
    step computes what a lone restart computes, slice by slice, so the
    results do not depend on the group size.

    Yields ``(restart, end)`` as each restart leaves the stack: ``end`` is
    None where it degenerated, else its final objective, 0-based labels,
    parameters, trace, iteration count, convergence flag and history.  The
    labels and parameters are views of the iteration's arrays, which no
    later step writes.  If any restart failed, raises the
    :class:`DescentError` of the lowest one once the group is done.
    """
    X, y = data.regressors, data.outputs
    S, N = cfg.S, data.N
    labels = _start_labels(data, cfg, first, count)
    clusters = np.arange(S, dtype=labels.dtype)[:, None]
    offsets = np.arange(0, count * S * N, S * N)[:, None] + np.arange(N)
    active = list(range(count))
    reseeded: list[set[int]] = [set() for _ in active]
    traces: list[list[float]] = [[] for _ in active]
    history: list[list[IterationRecord]] = [[] for _ in active]
    errors: list[DescentError] = []

    for iteration in range(1, cfg.max_iters + 1):
        a = len(active)
        buf = work[:a]
        np.equal(labels[:, None, :], clusters, out=buf)
        params, full = fit_members(table, buf, data.n, data)
        degenerate = []
        # an empty cluster fails the rank test and fits theta = 0: only the
        # restarts with such a cluster are checked for emptiness
        if not full.all():
            suspect = ~(full | params.any(axis=-1))
            for i in np.flatnonzero(suspect.any(axis=1)).tolist():
                empty = np.flatnonzero(~buf[i].any(axis=1)).tolist()
                if empty and _repair_empty(
                    data, labels[i], params[i], empty, reseeded[active[i]], table
                ):
                    degenerate.append(i)
        # squared residual_matrix, computed as it does, so both objectives
        # below equal objective_integer bit for bit
        np.matmul(params, X.T, out=buf)
        np.subtract(y, buf, out=buf)
        np.multiply(buf, buf, out=buf)
        fit_obj = _label_sums(buf, labels, offsets[:a]).tolist()
        new, obj = _relabel(buf)
        obj = obj.tolist()
        unchanged = (new == labels).all(axis=1).tolist()

        keep = []
        for i, g in enumerate(active):
            trace = traces[g]
            try:
                _record(trace, fit_obj[i], first + g, iteration)
                if i in degenerate:
                    yield first + g, None
                    continue
                _record(trace, obj[i], first + g, iteration)
            except DescentError as err:
                errors.append(err)
                continue
            if cfg.keep_history:
                history[g].append(
                    IterationRecord(
                        iteration, params[i].copy(), np.add(new[i], 1, dtype=np.intp), trace[-1]
                    )
                )
            converged = unchanged[i] or (
                len(trace) >= 4 and trace[-3] - trace[-1] < _STALL_TOL
            )
            if converged or iteration == cfg.max_iters:
                yield first + g, (
                    trace[-1], new[i], params[i], trace, iteration, converged, history[g]
                )
            else:
                keep.append(i)
        if not keep:
            break
        if len(keep) < a:
            active = [active[i] for i in keep]
            new = new[keep]
        labels = new

    if errors:
        raise min(errors, key=lambda err: err.restart)


def bcd_solve(data: Dataset, cfg: SolverConfig) -> SolveReport:
    """Best-of-restarts block-coordinate descent.

    Runs ``cfg.restarts`` independent descents (one when S = 1, where all
    would start alike), in lockstep groups of at most
    ``_GROUP_CELLS // (S * N)`` restarts, and returns the report of the
    one with the lowest final objective, with the count of degenerate
    restarts.  Only the running best restart's labels and parameters are
    copied as restarts finish, and the one report is built at the end.
    Raises :class:`SolverFailure` when every
    restart degenerates (a cluster emptied twice), :class:`DescentError`
    when a half-step raises the objective, and ValueError when the
    dataset has fewer samples than subsystems.
    """
    _need_samples(cfg.S, data.N)
    table = moment_table(data)
    # with one subsystem every start is all ones and every restart the same
    if cfg.S == 1:
        cfg = replace(cfg, restarts=1)
    G = min(cfg.restarts, max(1, _GROUP_CELLS // (cfg.S * data.N)))
    work = np.empty((G, cfg.S, data.N))
    best = None
    degenerate_count = 0
    for first in range(0, cfg.restarts, G):
        count = min(G, cfg.restarts - first)
        for restart, end in _run_group(data, cfg, first, count, table, work):
            if end is None:
                degenerate_count += 1
            # lowest objective, ties to the lowest restart
            elif best is None or (end[0], restart) < best[:2]:
                objective, labels, params, *rest = end
                best = (objective, restart, labels + 1, params.copy(), *rest)
    if best is None:
        raise SolverFailure(
            f"all {cfg.restarts} restarts degenerated (clusters kept emptying)"
        )
    objective, restart, labels, params, trace, iterations, converged, history = best
    return SolveReport(
        model=SLModel(params),
        assignment=Assignment(labels),
        objective=objective,
        trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        restart_index=restart,
        degenerate_restarts=degenerate_count,
        history=tuple(history) if cfg.keep_history else None,
    )
