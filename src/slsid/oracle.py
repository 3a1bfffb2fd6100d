"""Exhaustive ground truth on small instances.

Enumerates every one of the S^N label sequences, fits each nonempty cluster
by least squares, and reports the global minimum of the hard-assignment
objective together with all optimal solutions grouped into classes under
subsystem relabeling.  Enumeration follows a mixed-radix Gray code so each
step moves a single sample between clusters and only the two affected
cluster fits are recomputed from incrementally maintained Gram and moment
accumulators.

On noise-free data the oracle also decides uniqueness: the solution is
unique (up to relabeling) when exactly one optimal class exists and it has
neither empty nor rank-deficient clusters; a rank-deficient optimal cluster
means an infinite family of parameter vectors fits it, which counts as
non-unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .model import Dataset, fit_clusters
from .partitions import GRAM_RTOL, gram_full_rank

DEFAULT_ENUM_LIMIT = 2_000_000


class EnumerationLimitError(RuntimeError):
    """Raised when an exhaustive scan would exceed its configured limit."""


@dataclass(frozen=True)
class SolutionClass:
    """One equivalence class of optimal solutions under relabeling.

    ``labels`` is the canonical representative (subsystems renumbered in
    order of first appearance), ``params`` the per-cluster least-squares
    fits in canonical order, ``params_sorted`` the same vectors in
    lexicographic order for order-free comparison.
    """

    labels: tuple[int, ...]
    params: np.ndarray
    params_sorted: np.ndarray
    objective: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "params": [[float(v) for v in row] for row in self.params],
            "objective": self.objective,
            "degenerate": self.degenerate,
        }


def canonical_labels(labels: np.ndarray) -> tuple[int, ...]:
    """Renumber labels by first appearance; permutation-invariant."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        lab = int(lab)
        if lab not in mapping:
            mapping[lab] = len(mapping) + 1
        out.append(mapping[lab])
    return tuple(out)


def _mixed_radix_gray(N: int, S: int):
    """Yield (position, old_digit, new_digit) single-digit Gray steps."""
    digits = [0] * N
    offsets = [1] * N
    focus = list(range(N + 1))
    while True:
        j = focus[0]
        focus[0] = 0
        if j == N:
            return
        old = digits[j]
        new = old + offsets[j]
        digits[j] = new
        if new == 0 or new == S - 1:
            offsets[j] = -offsets[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
        yield j, old, new


def oracle_global(
    data: Dataset,
    S: int,
    tol: float = 1e-9,
    limit: int = DEFAULT_ENUM_LIMIT,
    rank_tol: float = GRAM_RTOL,
) -> tuple[float, list[SolutionClass]]:
    """Global minimum of the hard-assignment objective and all optimal classes.

    Every assignment within ``tol`` of the global minimum contributes; the
    returned classes are deduplicated under relabeling and sorted by their
    canonical label sequence.  Raises :class:`EnumerationLimitError` when
    S^N exceeds ``limit``.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    N, n = data.N, data.n
    total = S**N
    if total > limit:
        raise EnumerationLimitError(
            f"S^N = {total} exceeds the enumeration limit {limit}"
        )
    X, y = data.regressors, data.outputs

    labels = np.zeros(N, dtype=int)
    grams = np.zeros((S, n, n))
    moments = np.zeros((S, n))
    counts = np.zeros(S, dtype=int)
    grams[0] = X.T @ X
    moments[0] = X.T @ y
    counts[0] = N
    sse = np.zeros(S)
    degenerate = np.zeros(S, dtype=bool)

    def refresh(s: int) -> None:
        idx = np.flatnonzero(labels == s)
        if idx.size == 0:
            sse[s] = 0.0
            degenerate[s] = True
            return
        gram, moment = grams[s], moments[s]
        svals = np.linalg.svd(gram, compute_uv=False)
        degenerate[s] = not gram_full_rank(svals, n, rank_tol)
        theta, *_ = np.linalg.lstsq(gram, moment, rcond=None)
        r = y[idx] - X[idx] @ theta
        sse[s] = float(r @ r)

    for s in range(S):
        refresh(s)

    best = np.inf
    kept: list[tuple[float, bool, np.ndarray]] = []

    def consider():
        nonlocal best, kept
        obj = float(sse.sum())
        if obj < best:
            best = obj
            kept = [(o, d, lab) for o, d, lab in kept if o <= best + tol]
        if obj <= best + tol:
            kept.append((obj, bool(degenerate.any()), labels.copy()))

    consider()
    if S > 1:
        for k, old, new in _mixed_radix_gray(N, S):
            xk = X[k]
            outer = np.outer(xk, xk)
            xy = xk * y[k]
            grams[old] -= outer
            moments[old] -= xy
            counts[old] -= 1
            grams[new] += outer
            moments[new] += xy
            counts[new] += 1
            labels[k] = new
            refresh(old)
            refresh(new)
            consider()

    classes: dict[tuple[int, ...], SolutionClass] = {}
    for obj, deg, lab in kept:
        if obj > best + tol:
            continue
        canon = canonical_labels(lab)
        if canon in classes:
            continue
        canon_arr = np.asarray(canon)
        # canonical labels use 1..used, so clusters above used are the empty
        # ones, which count as degenerate through their rank flag
        params, full_rank, _ = fit_clusters(data, canon_arr, range(1, S + 1), rank_tol)
        exact_obj = 0.0
        for s in range(1, canon_arr.max() + 1):
            idx = (canon_arr == s).nonzero()[0]
            r = y[idx] - X[idx] @ params[s - 1]
            exact_obj += float(r @ r)
        order = np.lexsort(params.T[::-1])
        classes[canon] = SolutionClass(
            labels=canon,
            params=params,
            params_sorted=params[order],
            objective=exact_obj,
            degenerate=not full_rank.all(),
        )
    ordered = [classes[key] for key in sorted(classes)]
    return best, ordered


def unique_optimum(classes: list[SolutionClass]) -> bool:
    """Whether the optimal classes are a single well-posed one."""
    return len(classes) == 1 and not classes[0].degenerate


def oracle_unique(
    data: Dataset,
    S: int,
    tol: float = 1e-9,
    limit: int = DEFAULT_ENUM_LIMIT,
    rank_tol: float = GRAM_RTOL,
) -> bool:
    """Whether the optimum is attained by a single well-posed class."""
    return unique_optimum(oracle_global(data, S, tol, limit, rank_tol)[1])


def same_param_set(A: np.ndarray, B: np.ndarray, atol: float = 1e-7) -> bool:
    """Whether two parameter banks coincide as sets, entrywise within atol."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.shape != B.shape:
        return False
    return any(
        np.allclose(A[list(perm)], B, atol=atol, rtol=0.0)
        for perm in permutations(range(A.shape[0]))
    )
