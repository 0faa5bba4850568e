"""Dataset and config file handling.

Matrix CSV: header row of feature names, one row per sample, empty cell =
missing (the tokens ``NA``/``nan`` are accepted on read, never written);
any other cell must be a finite number.
Config files are flat ``key = value`` lines with ``#`` comments; nested
settings use dotted keys (e.g. ``missing.kind``).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import ParseError
from .masking import IncompleteMatrix

MISSING_TOKENS = {"", "na", "nan"}


def load_matrix_csv(path):
    """Returns (IncompleteMatrix, feature_names)."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        values, mask = [], []
        for i, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise ParseError(f"{path}: row {i} has {len(row)} cells, expected {len(names)}")
            vrow, mrow = [], []
            for j, cell in enumerate(row):
                token = cell.strip()
                if token.lower() in MISSING_TOKENS:
                    vrow.append(0.0)
                    mrow.append(0.0)
                else:
                    try:
                        value = float(token)
                    except ValueError:
                        raise ParseError(
                            f"{path}: row {i}, column {j + 1}: not a number: {token!r}") from None
                    if not math.isfinite(value):
                        raise ParseError(
                            f"{path}: row {i}, column {j + 1}: not a finite number: {token!r}")
                    vrow.append(value)
                    mrow.append(1.0)
            values.append(vrow)
            mask.append(mrow)
    if not values:
        raise ParseError(f"{path}: no data rows")
    return IncompleteMatrix(np.array(values), np.array(mask)), names


def write_matrix_csv(path, data: IncompleteMatrix, names=None):
    """Full-precision CSV; missing entries become empty cells."""
    n, d = data.shape
    if names is None:
        names = [f"f{j}" for j in range(d)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(names)
        for i in range(n):
            w.writerow([repr(float(data.values[i, j])) if data.mask[i, j] == 1 else ""
                        for j in range(d)])


def write_complete_csv(path, x: np.ndarray, names=None):
    x = np.asarray(x, dtype=np.float64)
    write_matrix_csv(path, IncompleteMatrix(x, np.ones_like(x)), names)


def load_complete_csv(path):
    data, names = load_matrix_csv(path)
    if not np.all(data.mask == 1):
        raise ParseError(f"{path}: expected a complete matrix, found missing cells")
    return data.values, names


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' starts a comment; dotted keys allowed."""
    out = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def format_config(resolved: dict) -> str:
    return "".join(f"{k} = {resolved[k]}\n" for k in sorted(resolved))
