"""The paper's relaxation and stationarity claims, stated with the public API.

Test modules import these helpers; nothing here is collected as a test.
"""

import numpy as np

from slsid import SolverConfig, SolverFailure, bcd_solve
from slsid.model import residual_matrix


def relaxed_objective(data, model, w):
    """Penalty relaxation at the S x N membership weights ``w``.

    Per sample k: sum_s w_sk r_sk^2 + 1 - sum_s w_sk^2, summed over k.  At
    binary weights the penalty is exactly zero, and the value equals
    ``objective_integer`` bit for bit.
    """
    r = residual_matrix(data, model)
    return float(np.sum((w * (r * r)).sum(axis=0) + (1.0 - (w * w).sum(axis=0))))


def one_hot(labels, S):
    """S x N binary weights of 1-based ``labels``."""
    return np.eye(S)[:, labels - 1]


def is_stationary(data, report):
    """Whether one more descent round leaves ``report`` where it is.

    A single restart from the report's labels must stop at iteration 1 as
    converged, with the same labels and parameters within 1e-12.
    """
    cfg = SolverConfig(S=report.model.S, restarts=1, init_labels=report.assignment)
    try:
        again = bcd_solve(data, cfg)
    except SolverFailure:
        return False
    return (
        again.iterations == 1
        and again.converged
        and again.assignment == report.assignment
        and np.allclose(again.model.params, report.model.params, rtol=0.0, atol=1e-12)
    )
