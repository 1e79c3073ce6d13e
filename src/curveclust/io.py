"""Curve CSV / labels CSV / result JSON reading and writing.

Curve CSV: header row `id,t_1,...,t_n` with the shared grid values; one row per
curve.  Labels CSV: `id,label`.  All ids are kept as strings in files; the
pipeline works on dense integer indexes in file order.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from typing import Dict, List, Tuple

import numpy as np

from .errors import InvalidInputError


def check_output_path(path) -> None:
    """Reject an output path that cannot be written, so that a command fails
    before its work: the path's folder must exist and be writable, and the
    path must not be a folder."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise InvalidInputError(f"output path is a folder: {path}")
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise InvalidInputError(f"cannot write output file {path}: no writable folder")


@contextlib.contextmanager
def _output(path, newline=None):
    """The file at `path`, opened for writing; a failed write is invalid input."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InvalidInputError(f"cannot write output file: {exc}") from exc


@contextlib.contextmanager
def _input(path, what, newline=None):
    """The `what` file at `path`, opened for reading; a failed read, or text
    that is not UTF-8, is invalid input."""
    try:
        with open(path, newline=newline, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {what} file: {exc}") from exc


def write_text(path, text: str):
    with _output(path) as fh:
        fh.write(text)


def write_curves_csv(path, ids, points, samples):
    with _output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [repr(float(t)) for t in points])
        for curve_id, row in zip(ids, samples):
            writer.writerow([str(curve_id)] + [repr(float(v)) for v in row])


def read_curves_csv(path) -> Tuple[List[str], np.ndarray, np.ndarray]:
    with _input(path, "curves", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows) < 2:
        raise InvalidInputError("curves file needs a header and at least one curve")
    header = rows[0]
    if not header or header[0] != "id":
        raise InvalidInputError("curves file header must start with 'id'")
    try:
        points = np.array([float(v) for v in header[1:]])
    except ValueError as exc:
        raise InvalidInputError(f"bad grid value in header: {exc}") from exc
    names: List[str] = []
    data = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(points) + 1:
            raise InvalidInputError(f"row {line_no} has {len(row) - 1} values, expected {len(points)}")
        names.append(row[0])
        try:
            data.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise InvalidInputError(f"bad value in row {line_no}: {exc}") from exc
    if len(set(names)) != len(names):
        raise InvalidInputError("duplicate curve ids in curves file")
    return names, points, np.array(data)


def write_labels_csv(path, ids, labels: Dict):
    with _output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for curve_id in ids:
            writer.writerow([str(curve_id), str(labels[curve_id])])


def read_labels_csv(path) -> Dict[str, str]:
    with _input(path, "labels", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["id", "label"]:
        raise InvalidInputError("labels file header must be 'id,label'")
    labels = {}
    for row in rows[1:]:
        if not row:
            continue
        if len(row) < 2:
            raise InvalidInputError("labels rows need an id and a label")
        if row[0] in labels:
            raise InvalidInputError(f"duplicate id in labels file: {row[0]!r}")
        labels[row[0]] = row[1]
    return labels


def _json_value(value: float) -> object:
    return value if math.isfinite(value) else None


def result_json(result, names: List[str]) -> str:
    """Deterministic JSON for a run result; ids mapped back to file names."""

    def named(partition):
        return [[names[i] for i in group] for group in partition.sorted_groups()]

    candidates = [
        {
            "partition": named(record.partition),
            "nu0": _json_value(record.score),
            "threshold": record.threshold,
            "iteration": record.iteration,
        }
        for record in result.candidates
    ]
    data = {
        "partition": named(result.partition),
        "threshold": result.threshold,
        "index_name": result.index_name,
        "index_value": _json_value(result.index_value),
        "iterations": result.iterations,
        "candidates": candidates,
        "warps": {names[i]: samples for i, samples in sorted(result.warps.items())},
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def read_partition_json(path) -> List[List[str]]:
    """Accepts a result JSON (with a 'partition' field) or a bare array."""
    with _input(path, "partition") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"bad JSON in partition file: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("partition")
    if not isinstance(data, list) or not all(isinstance(g, list) for g in data):
        raise InvalidInputError("partition must be an array of arrays of ids")
    return [[str(v) for v in group] for group in data]
