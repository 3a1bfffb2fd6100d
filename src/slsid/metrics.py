"""Estimation-quality metrics with permutation alignment.

Estimated subsystems carry arbitrary indices, so both metrics align the
estimate to the truth by the label permutation that minimizes the
normalized parameter error; the classification error reuses that
permutation.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .model import Assignment, SLModel

MAX_ALIGN_S = 8


def nmse(estimate: SLModel, truth: SLModel) -> tuple[float, tuple[int, ...]]:
    """Permutation-minimal normalized parametric MSE.

    Returns the minimum over label permutations of
    sum_s ||theta_hat_{pi(s)} - theta*_s||^2 / ||theta*_s||^2 together with
    the minimizing permutation, encoded so that ``perm[j - 1]`` is the truth
    label matched to estimate label ``j``.
    """
    if estimate.S != truth.S or estimate.n != truth.n:
        raise ValueError("estimate and truth must share S and n")
    if truth.S > MAX_ALIGN_S:
        raise ValueError(f"exhaustive alignment supports S <= {MAX_ALIGN_S}")
    norms = np.sum(truth.params * truth.params, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("a true parameter vector has zero norm; NMSE undefined")
    best_val = np.inf
    best_perm: tuple[int, ...] = tuple(range(1, truth.S + 1))
    for perm in permutations(range(truth.S)):
        diffs = estimate.params - truth.params[list(perm)]
        val = float(np.sum(np.sum(diffs * diffs, axis=1) / norms[list(perm)]))
        if val < best_val:
            best_val = val
            best_perm = tuple(p + 1 for p in perm)
    return best_val, best_perm


def classification_error(
    estimate: Assignment, truth: Assignment, perm: tuple[int, ...]
) -> float:
    """Fraction of samples whose aligned label disagrees with the truth.

    ``perm`` maps estimate labels onto truth labels (``perm[j - 1]`` is the
    truth label for estimate label ``j``), normally the permutation returned
    by :func:`nmse`.
    """
    estimate.validate(len(truth))
    lookup = np.asarray(perm, dtype=int)
    if estimate.labels.max() > lookup.size:
        raise ValueError("estimate uses a label outside the permutation")
    mapped = lookup[estimate.labels - 1]
    return float(np.mean(mapped != truth.labels))
