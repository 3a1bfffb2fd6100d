import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import Assignment, SLModel, classification_error, nmse


def test_exact_estimate_scores_zero():
    truth = SLModel(np.array([[1.0, 1.0], [-2.0, 4.0]]))
    val, perm = nmse(truth, truth)
    assert val == 0.0
    assert perm == (1, 2)


def test_swapped_estimate_scores_zero_with_swap():
    truth = SLModel(np.array([[1.0, 1.0], [-2.0, 4.0]]))
    est = SLModel(truth.params[::-1])
    val, perm = nmse(est, truth)
    assert val == 0.0
    assert perm == (2, 1)


def test_partial_match_value():
    truth = SLModel(np.array([[1.0, 1.0], [-2.0, 4.0]]))
    est = SLModel(np.array([[-2.0, 4.0], [1.0, 2.0]]))
    val, perm = nmse(est, truth)
    assert perm == (2, 1)
    assert val == pytest.approx(0.5)


def test_zero_norm_truth_rejected():
    truth = SLModel(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        nmse(truth, truth)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        nmse(SLModel(np.ones((2, 2))), SLModel(np.ones((3, 2))))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_nmse_invariant_under_estimate_relabeling(seed):
    rng = np.random.default_rng(seed)
    S, n = int(rng.integers(2, 5)), int(rng.integers(1, 4))
    truth = SLModel(rng.uniform(0.5, 3, size=(S, n)))
    est = SLModel(rng.uniform(-3, 3, size=(S, n)))
    base, _ = nmse(est, truth)
    perm = rng.permutation(S)
    shuffled = SLModel(est.params[perm])
    val, _ = nmse(shuffled, truth)
    assert val == pytest.approx(base, rel=1e-12)


class TestClassificationError:
    def test_identical(self):
        a = Assignment(np.array([1, 2, 1, 2]))
        assert classification_error(a, a, (1, 2)) == 0.0

    def test_fully_swapped(self):
        est = Assignment(np.array([2, 1, 2, 1]))
        truth = Assignment(np.array([1, 2, 1, 2]))
        assert classification_error(est, truth, (2, 1)) == 0.0

    def test_single_mismatch(self):
        est = Assignment(np.array([1, 1, 1, 2]))
        truth = Assignment(np.array([1, 1, 1, 1]))
        assert classification_error(est, truth, (1, 2)) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classification_error(
                Assignment(np.array([1, 1])), Assignment(np.array([1])), (1,)
            )


def test_alignment_beyond_max_S_rejected():
    model = SLModel(np.ones((9, 1)))
    with pytest.raises(ValueError, match="exhaustive alignment supports S <= 8"):
        nmse(model, model)
