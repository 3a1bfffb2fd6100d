"""Small noise-free benchmark fixtures with known exact solutions.

Both systems have two subsystems and are small enough for the exact
oracle.  The four-sample planar fixture admits several exact fits (its
clusters are too thin to pin the parameters down); appending one extra
regressor to cluster 1 makes the solution unique.  The eight-sample
three-dimensional fixture is uniquely identifiable, and dropping its first
sample reopens a second exact fit.
"""

from __future__ import annotations

import numpy as np

from .model import Assignment, Dataset, NoiseSpec, SLModel, simulate

EXAMPLE1_PARAMS = np.array([[1.0, 1.0], [-2.0, 4.0]])
EXAMPLE1_REGRESSORS = np.array([[1.0, 0.0], [0.0, 1.0], [-2.0, -1.0], [1.0, -2.0]])
EXAMPLE1_LABELS = np.array([1, 1, 2, 2])
EXAMPLE1_EXTRA_REGRESSOR = np.array([1.0, 2.0])

EXAMPLE2_PARAMS = np.array([[1.0, 1.0, 1.0], [-2.0, 4.0, 1.0]])
EXAMPLE2_REGRESSORS = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 1.0],
        [1.0, 3.0, -1.0],
        [2.0, 1.0, 1.0],
        [-1.0, 2.0, 1.0],
        [-2.0, -1.0, 0.0],
        [1.0, -2.0, -1.0],
        [1.0, -1.0, -2.0],
    ]
)
EXAMPLE2_LABELS = np.array([1, 1, 1, 1, 1, 2, 2, 2])


def example_one() -> tuple[SLModel, Dataset]:
    """Four planar samples, two per subsystem; not uniquely identifiable."""
    model = SLModel(EXAMPLE1_PARAMS)
    data = simulate(model, EXAMPLE1_REGRESSORS, Assignment(EXAMPLE1_LABELS), NoiseSpec())
    return model, data


def example_one_augmented() -> tuple[SLModel, Dataset]:
    """The four-sample fixture plus x5 = (1, 2) in cluster 1; identifiable."""
    model = SLModel(EXAMPLE1_PARAMS)
    regressors = np.vstack([EXAMPLE1_REGRESSORS, EXAMPLE1_EXTRA_REGRESSOR])
    labels = np.append(EXAMPLE1_LABELS, 1)
    data = simulate(model, regressors, Assignment(labels), NoiseSpec())
    return model, data


def example_two() -> tuple[SLModel, Dataset]:
    """Eight samples in R^3, cluster sizes 5 and 3; uniquely identifiable."""
    model = SLModel(EXAMPLE2_PARAMS)
    data = simulate(model, EXAMPLE2_REGRESSORS, Assignment(EXAMPLE2_LABELS), NoiseSpec())
    return model, data


def example_two_seven() -> tuple[SLModel, Dataset]:
    """The eight-sample fixture with its first sample removed; a second
    parameter pair fits the remaining seven outputs exactly."""
    model = SLModel(EXAMPLE2_PARAMS)
    data = simulate(
        model,
        EXAMPLE2_REGRESSORS[1:],
        Assignment(EXAMPLE2_LABELS[1:]),
        NoiseSpec(),
    )
    return model, data
