"""Kernel evaluation and streaming column production.

Pairwise evaluations deliberately avoid BLAS matrix products: every kernel
value is computed as an elementwise reduction over the feature axis, so the
same pair of points yields the bit-identical scalar no matter whether it is
requested through :func:`evaluate`, :func:`stream_column` or :func:`gram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError

# Dense t x t materialization is meant for verification work only.
DESK_SCALE_CAP = 5000

_FAMILIES = ("gaussian", "linear", "polynomial")

# Row-block size for pairwise evaluation; bounds temporary memory at
# block * n * d floats while keeping the per-pair reduction order fixed.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class KernelSpec:
    """A positive definite kernel: family name plus hyperparameters.

    Supported families: ``gaussian`` (needs ``bandwidth > 0``), ``linear``
    and ``polynomial`` (needs integer ``degree >= 1`` and ``offset >= 0``).
    """

    family: str
    bandwidth: float | None = None
    degree: int | None = None
    offset: float | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian":
            if self.bandwidth is None or not self.bandwidth > 0:
                raise InputError("gaussian kernel needs bandwidth > 0")
        if self.family == "polynomial":
            if self.degree is None or int(self.degree) < 1:
                raise InputError("polynomial kernel needs degree >= 1")
            if self.offset is None or self.offset < 0:
                raise InputError("polynomial kernel needs offset >= 0")

    @classmethod
    def gaussian_kernel(cls, bandwidth: float) -> "KernelSpec":
        return cls(family="gaussian", bandwidth=bandwidth)

    @classmethod
    def linear_kernel(cls) -> "KernelSpec":
        return cls(family="linear")

    @classmethod
    def polynomial_kernel(cls, degree: int, offset: float = 0.0) -> "KernelSpec":
        return cls(family="polynomial", degree=degree, offset=offset)


@dataclass(frozen=True)
class KernelColumn:
    """One streamed column: cross terms against a stated index set plus the
    new point's self evaluation."""

    cross: np.ndarray
    self_term: float


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise InputError("points must be 1-D vectors or a 2-D array of rows")
    return pts


def pairwise(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Kernel matrix between two point sets, shape (len(rows), len(cols))."""
    A = _as_points(rows)
    B = _as_points(cols)
    if A.shape[1] != B.shape[1]:
        raise InputError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    out = np.empty((A.shape[0], B.shape[0]))
    for start in range(0, A.shape[0], _BLOCK_ROWS):
        blk = A[start : start + _BLOCK_ROWS]
        if spec.family == "gaussian":
            d2 = np.sum((blk[:, None, :] - B[None, :, :]) ** 2, axis=-1)
            vals = np.exp(-d2 / (2.0 * spec.bandwidth**2))
        elif spec.family == "linear":
            vals = np.sum(blk[:, None, :] * B[None, :, :], axis=-1)
        else:
            dots = np.sum(blk[:, None, :] * B[None, :, :], axis=-1)
            vals = (dots + spec.offset) ** int(spec.degree)
        out[start : start + blk.shape[0]] = vals
    return out


def _symmetric_pairwise(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """``pairwise(spec, points, points)``, evaluating each pair once.

    Each row block is evaluated against the points up to its end, and the
    rest is mirrored from the blocks below; every family's value is exactly
    symmetric in its two points, so the result equals the full evaluation
    bit for bit.
    """
    n = points.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        out[start:stop, :stop] = pairwise(spec, points[start:stop], points[:stop])
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        out[start:stop, stop:] = out[stop:, start:stop].T
    return out


def evaluate(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of points."""
    return float(pairwise(spec, x, y)[0, 0])


@dataclass(frozen=True)
class Dataset:
    """An ordered point set with optional labels.

    Points and labels are copied and frozen at construction, so downstream
    state may hold views into them safely while the caller's arrays stay
    writable.  Non-finite values are rejected here, naming the first bad row.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64, order="C")
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError("dataset needs a non-empty 2-D (n, d) point array")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise InputError(f"dataset row {bad[0]} has a non-finite point coordinate")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.array(self.labels, dtype=np.float64).reshape(-1)
            if lab.shape[0] != pts.shape[0]:
                raise InputError("labels must match the number of points")
            bad = np.flatnonzero(~np.isfinite(lab))
            if bad.size:
                raise InputError(f"dataset row {bad[0]} has a non-finite label")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def stream_column(
    dataset: Dataset,
    spec: KernelSpec,
    new_index: int,
    restrict_to: Iterable[int],
) -> KernelColumn:
    """Kernel column of point ``new_index`` against ``restrict_to``.

    ``restrict_to`` must contain indices strictly below ``new_index``; the
    cross vector is returned in ascending index order.  An empty restriction
    yields an empty cross vector and just the self term.
    """
    n = len(dataset)
    if not 0 <= new_index < n:
        raise InputError(f"index {new_index} out of range for {n} points")
    idx = sorted(int(i) for i in restrict_to)
    if idx and (idx[0] < 0 or idx[-1] >= new_index):
        raise InputError("restriction indices must lie in [0, new_index)")
    x_new = dataset.points[new_index]
    if idx:
        cross = pairwise(spec, x_new, dataset.points[idx])[0]
    else:
        cross = np.empty(0)
    self_term = evaluate(spec, x_new, x_new)
    return KernelColumn(cross=cross, self_term=self_term)


def gram(dataset: Dataset, spec: KernelSpec, t: int | None = None) -> np.ndarray:
    """Dense kernel matrix on the first ``t`` points (desk scale only)."""
    n = len(dataset)
    t = n if t is None else int(t)
    if not 1 <= t <= n:
        raise InputError(f"prefix length {t} out of range for {n} points")
    if t > DESK_SCALE_CAP:
        raise InputError(f"gram materialization capped at {DESK_SCALE_CAP} points")
    return _symmetric_pairwise(spec, dataset.points[:t])


def load_csv(
    path,
    *,
    has_header: bool = False,
    label_column: int | None = -1,
) -> Dataset:
    """Load a dense CSV dataset, one sample per row.

    ``label_column`` selects the label field (negative indices count from the
    end); pass ``None`` for unlabeled data.  Malformed rows raise
    :class:`InputError` with the offending line number.
    """
    import csv

    rows: list[list[float]] = []
    labels: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if has_header and lineno == 1:
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise InputError(f"{path}: malformed CSV row at line {lineno}: {exc}")
            if not all(math.isfinite(v) for v in vals):
                raise InputError(f"{path}: non-finite value at line {lineno}")
            if label_column is None:
                rows.append(vals)
            else:
                col = label_column if label_column >= 0 else len(vals) + label_column
                if not 0 <= col < len(vals):
                    raise InputError(
                        f"{path}: line {lineno} has no column {label_column}"
                    )
                labels.append(vals[col])
                rows.append(vals[:col] + vals[col + 1 :])
    if not rows:
        raise InputError(f"{path}: no data rows")
    width = len(rows[0])
    for r, vals in enumerate(rows, start=1):
        if len(vals) != width:
            raise InputError(f"{path}: inconsistent row width at data row {r}")
    return Dataset(
        points=np.asarray(rows), labels=np.asarray(labels) if label_column is not None else None
    )


def load_libsvm(path) -> Dataset:
    """Load a sparse libsvm-format file and densify it."""
    entries: list[dict[int, float]] = []
    labels: list[float] = []
    max_feature = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
                feats: dict[int, float] = {}
                for item in parts[1:]:
                    key, val = item.split(":")
                    feats[int(key)] = float(val)
            except ValueError as exc:
                raise InputError(f"{path}: malformed libsvm line {lineno}: {exc}")
            if not all(math.isfinite(v) for v in (label, *feats.values())):
                raise InputError(f"{path}: non-finite value at line {lineno}")
            labels.append(label)
            if feats:
                max_feature = max(max_feature, max(feats))
            entries.append(feats)
    if not entries:
        raise InputError(f"{path}: no data rows")
    points = np.zeros((len(entries), max(max_feature, 1)))
    for i, feats in enumerate(entries):
        for key, val in feats.items():
            points[i, key - 1] = val
    return Dataset(points=points, labels=np.asarray(labels))
