"""Dataset and config file handling.

Matrix CSV: header row of feature names, one row per sample, empty cell =
missing (the tokens ``NA``/``nan`` are accepted on read, never written);
any other cell must be a finite number.
Triplet CSV: columns user_id,item_id,rating with integer star ratings.
Config files are flat ``key = value`` lines with ``#`` comments; nested
settings use dotted keys (e.g. ``missing.kind``).
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import ParseError
from .evaluate import rating_transform
from .masking import IncompleteMatrix
from .synth import make_rng

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


def load_triplets(path, n_users: int, n_items: int, r_max: int = 5,
                  mode: str = "train", seed: int = 0) -> IncompleteMatrix:
    """user x item matrix from (user_id, item_id, rating) rows.

    Ratings are transformed to (0, 1]; in train mode each entry gets its own
    noise offset drawn from N(0, 0.1), in test mode the offset is 0.
    """
    if mode not in ("train", "test"):
        raise ParseError(f"mode must be 'train' or 'test', got {mode!r}")
    rng = make_rng(seed)
    values = np.zeros((n_users, n_items))
    mask = np.zeros((n_users, n_items))
    with open(path, newline="") as f:
        reader = csv.reader(f)
        rows = list(reader)
    start = 0
    if rows and rows[0] and not _is_int(rows[0][0]):
        start = 1  # optional header
    for i, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"{path}: row {i}: expected 3 columns, got {len(row)}")
        try:
            u, it, r = int(row[0]), int(row[1]), int(row[2])
        except ValueError:
            raise ParseError(f"{path}: row {i}: non-integer field") from None
        if not 0 <= u < n_users:
            raise ParseError(f"{path}: row {i}: user id {u} out of range")
        if not 0 <= it < n_items:
            raise ParseError(f"{path}: row {i}: item id {it} out of range")
        if not 1 <= r <= r_max:
            raise ParseError(f"{path}: row {i}: rating {r} out of range [1, {r_max}]")
        if mask[u, it] == 1:
            raise ParseError(f"{path}: row {i}: duplicate (user, item) pair ({u}, {it})")
        eps = rng.normal(0.0, np.sqrt(0.1)) if mode == "train" else 0.0
        values[u, it] = rating_transform(r, r_max, eps)
        mask[u, it] = 1.0
    return IncompleteMatrix(values, mask)


def _is_int(token: str) -> bool:
    try:
        int(token)
        return True
    except ValueError:
        return False


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
