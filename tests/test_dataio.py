import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsid import (
    NoiseSpec,
    generate_random_scenario,
    load_dataset,
    load_model,
    objective_integer,
    save_dataset,
    save_model,
)
from slsid import fixtures


def test_dataset_round_trip_bitwise(tmp_path):
    _, data = generate_random_scenario(3, 2, 40, (-5, 5), NoiseSpec("gaussian", 0.1), 5)
    path = tmp_path / "data.csv"
    save_dataset(path, data)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.regressors, data.regressors)
    np.testing.assert_array_equal(loaded.outputs, data.outputs)
    np.testing.assert_array_equal(loaded.truth.labels, data.truth.labels)


def test_dataset_without_labels(tmp_path):
    from slsid.model import Dataset

    data = Dataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, -0.5]))
    path = tmp_path / "plain.csv"
    save_dataset(path, data)
    assert path.read_text().splitlines()[0] == "x1,x2,y"
    loaded = load_dataset(path)
    assert loaded.truth is None
    np.testing.assert_array_equal(loaded.outputs, data.outputs)


def test_model_round_trip(tmp_path):
    model, _ = fixtures.example_two()
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.params, model.params)


@pytest.mark.parametrize(
    "text, message",
    [
        ("[[1.0, 2.0]]", "must be an object"),
        ('{"n": 2, "S": 1}', "lacks params"),
        ('{"params": [[1.0, 2.0]]}', "lacks n, S"),
        ('{"n": 2, "S": 1, "params": [[NaN, 2.0]]}', "params row 1 "),
        ('{"n": 2, "S": 1, "params": [[1.0, 2.0], [3.0]]}', "inhomogeneous"),
        ('{"n": 3, "S": 1, "params": [[1.0, 2.0]]}', "declared n/S disagree"),
    ],
)
def test_malformed_model_rejected_with_its_path(tmp_path, text, message):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as exc:
        load_model(path)
    assert str(path) in str(exc.value)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_dataset(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_dataset(path)


@pytest.mark.parametrize(
    "text", ["x1,y\n", "x1,x2,y,zeta\n\n\n"], ids=["header", "blank-lines"]
)
def test_header_only_rejected(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="no data rows") as exc:
        load_dataset(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1.0,2.0,1\n3.0,4.0,2,9\n", "4 fields, the header has 3"),
        ("1.0,2.0,1\n3.0,4.0\n", "2 fields, the header has 3"),
        ("1.0,2.0,1\n3.0,4.0,1.5\n", "zeta '1.5' is not an integer"),
        ("1.0,2.0,1\n3.0,4.0,b\n", "zeta 'b' is not an integer"),
        ("1.0,2.0,1\nx,4.0,2\n", "non-numeric field"),
    ],
    ids=["extra-field", "short-row", "fractional-zeta", "text-zeta", "text-x"],
)
def test_malformed_row_rejected_with_its_line(tmp_path, rows, message):
    path = tmp_path / "rows.csv"
    path.write_text("x1,y,zeta\n" + rows)
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    assert f"{path}, line 3: " in str(exc.value)
    assert message in str(exc.value)


def test_round_trip_preserves_exact_fit(tmp_path):
    model, data = fixtures.example_two()
    save_dataset(tmp_path / "ex2.csv", data)
    loaded = load_dataset(tmp_path / "ex2.csv")
    assert objective_integer(loaded, model, loaded.truth) == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
def test_round_trip_arbitrary_floats(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    from slsid.model import Assignment, Dataset

    N, n = int(rng.integers(1, 8)), int(rng.integers(1, 4))
    data = Dataset(
        rng.standard_normal((N, n)) * 10.0 ** rng.integers(-8, 8),
        rng.standard_normal(N),
        Assignment(rng.integers(1, 4, size=N)),
    )
    path = tmp_path_factory.mktemp("io") / "rt.csv"
    save_dataset(path, data)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.regressors, data.regressors)
    np.testing.assert_array_equal(loaded.outputs, data.outputs)
