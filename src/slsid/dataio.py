"""Flat-file formats: dataset CSV and model JSON.

Dataset CSV has header ``x1,...,xn,y`` plus an optional trailing ``zeta``
column for truth labels, one row per sample.  Floats are written with
Python's shortest round-trip representation, so save/load is bitwise
lossless.  Model JSON is ``{"n": ..., "S": ..., "params": [[...], ...]}``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .model import Assignment, Dataset, SLModel


def save_dataset(path, data: Dataset) -> None:
    path = Path(path)
    header = [f"x{j + 1}" for j in range(data.n)] + ["y"]
    if data.truth is not None:
        header.append("zeta")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(data.N):
            row = [repr(float(v)) for v in data.regressors[k]]
            row.append(repr(float(data.outputs[k])))
            if data.truth is not None:
                row.append(str(int(data.truth.labels[k])))
            writer.writerow(row)


def load_dataset(path) -> Dataset:
    """Read a dataset CSV; a ValueError names the file, and a bad row's line."""
    path = Path(path)
    with path.open(newline="") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        reader = csv.reader(lines)
        header = next(reader, [])
        has_labels = bool(header) and header[-1] == "zeta"
        n = len(header) - (2 if has_labels else 1)
        if n < 1 or header[:n] != [f"x{j + 1}" for j in range(n)] or header[n] != "y":
            raise ValueError(f"{path}: malformed dataset header {header!r}")
        regressors, outputs, labels = [], [], []
        for row in reader:
            if not row:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise ValueError(
                    f"{where}: {len(row)} fields, the header has {len(header)}"
                )
            try:
                regressors.append([float(v) for v in row[:n]])
                outputs.append(float(row[n]))
            except ValueError:
                raise ValueError(f"{where}: non-numeric field in {row!r}") from None
            if has_labels:
                try:
                    labels.append(int(row[n + 1]))
                except ValueError:
                    raise ValueError(
                        f"{where}: zeta {row[n + 1]!r} is not an integer"
                    ) from None
    if not outputs:
        raise ValueError(f"{path}: no data rows after the header")
    try:
        truth = Assignment(np.array(labels)) if has_labels else None
        return Dataset(np.array(regressors), np.array(outputs), truth=truth)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_model(path, model: SLModel) -> None:
    payload = {
        "n": model.n,
        "S": model.S,
        "params": [[float(v) for v in row] for row in model.params],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_model(path) -> SLModel:
    """Read a model JSON; a ValueError names the file."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: model JSON must be an object")
    missing = [key for key in ("n", "S", "params") if key not in payload]
    if missing:
        raise ValueError(f"{path}: model JSON lacks {', '.join(missing)}")
    try:
        model = SLModel(np.array(payload["params"], dtype=float))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if model.n != payload["n"] or model.S != payload["S"]:
        raise ValueError(f"{path}: declared n/S disagree with params shape")
    return model
