"""Kernel specifications, kernel evaluation and dataset loading.

Each family's formula is written once, in :func:`_values`, as an
elementwise reduction over the feature axis (no BLAS matrix product).  Every
route (:func:`column`, :func:`evaluate`, :func:`pairwise`, :func:`gram`)
evaluates a pair through it, so the same pair of points yields the
bit-identical scalar on every route: a streaming step evaluates its column
with the first, a verification pass the dense matrix with the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, gaussian_bandwidth, non_negative, positive, positive_int

# Dense t x t materialization is meant for verification work only.
DESK_SCALE_CAP = 5000

FAMILIES = ("gaussian", "linear", "polynomial")

# Rows per block of the one-triangle evaluation in _symmetric_pairwise.
_BLOCK_ROWS = 256
# Floats in each (rows, n, d) broadcast temporary of a block of pairwise
# evaluation (512 KiB): the block's row count follows from it, so the
# temporaries stay this size whatever n and d are.  The per-pair reduction
# order does not depend on the block.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """A positive definite kernel: family name plus hyperparameters.

    Supported families: ``gaussian`` (needs a ``bandwidth`` in its formula's
    range, about 1.6e-162 to 9.5e153), ``linear`` and ``polynomial`` (needs
    a positive integer ``degree`` and a non-negative finite ``offset``).
    """

    family: str
    bandwidth: float | None = None
    degree: int | None = None
    offset: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.family == "gaussian":
            positive("bandwidth", self.bandwidth)
            gaussian_bandwidth("bandwidth", self.bandwidth)
        if self.family == "polynomial":
            positive_int("degree", self.degree)
            non_negative("offset", self.offset)

    @classmethod
    def gaussian_kernel(cls, bandwidth: float) -> "KernelSpec":
        return cls(family="gaussian", bandwidth=bandwidth)

    @classmethod
    def linear_kernel(cls) -> "KernelSpec":
        return cls(family="linear")

    @classmethod
    def polynomial_kernel(cls, degree: int, offset: float = 0.0) -> "KernelSpec":
        return cls(family="polynomial", degree=degree, offset=offset)


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise InputError("points must be 1-D vectors or a 2-D array of rows")
    return pts


def _values(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The kernel on the points ``a`` and ``b``, broadcast against each
    other and reduced over the last (feature) axis: each family's formula."""
    if spec.family == "gaussian":
        return np.exp(-np.add.reduce((a - b) ** 2, axis=-1) / (2.0 * spec.bandwidth**2))
    dots = np.add.reduce(a * b, axis=-1)
    if spec.family == "linear":
        return dots
    return (dots + spec.offset) ** int(spec.degree)


def pairwise(spec: KernelSpec, rows, cols) -> np.ndarray:
    """Kernel matrix between two point sets, shape (len(rows), len(cols))."""
    A = _as_points(rows)
    B = _as_points(cols)
    if A.shape[1] != B.shape[1]:
        raise InputError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    out = np.empty((A.shape[0], B.shape[0]))
    _pairwise_into(spec, A, B, out)
    return out


def _pairwise_into(spec: KernelSpec, A: np.ndarray, B: np.ndarray, out: np.ndarray) -> None:
    """Write the kernel between the rows of ``A`` and of ``B`` into ``out``,
    a block of rows at a time, each block's broadcast temporaries holding at
    most about ``_BLOCK_ELEMENTS`` floats."""
    step = max(1, _BLOCK_ELEMENTS // max(1, B.size))
    for start in range(0, A.shape[0], step):
        blk = A[start : start + step]
        out[start : start + blk.shape[0]] = _values(spec, blk[:, None, :], B)


def _symmetric_pairwise(spec: KernelSpec, points: np.ndarray) -> np.ndarray:
    """``pairwise(spec, points, points)``, evaluating each pair once.

    Each row block is evaluated against the points up to its end, straight
    into the result, and the rest is mirrored from the blocks below; every
    family's value is exactly symmetric in its two points, so the result
    equals the full evaluation bit for bit.
    """
    n = points.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        _pairwise_into(spec, points[start:stop], points[:stop], out[start:stop, :stop])
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        out[start:stop, stop:] = out[stop:, start:stop].T
    return out


def column(spec: KernelSpec, point: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, float]:
    """``(cross, self_term)``: ``pairwise(spec, point, points)[0]`` and
    ``evaluate(spec, point, point)`` bit for bit, as one row reduction over
    ``points`` with ``point`` appended."""
    vals = _values(spec, point, np.concatenate((points, point[None, :])))
    return vals[:-1], float(vals[-1])


def evaluate(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a single pair of points."""
    return float(pairwise(spec, x, y)[0, 0])


@dataclass(frozen=True)
class Dataset:
    """An ordered point set with optional labels.

    Points and labels are copied and frozen at construction, so downstream
    state may hold views into them safely while the caller's arrays stay
    writable.  A dataset has at least one point and one feature; non-finite
    values are rejected here, naming the first bad row.
    """

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=np.float64, order="C")
        if pts.ndim != 2 or 0 in pts.shape:
            raise InputError(f"dataset needs a 2-D (n, d) point array with n, d >= 1, got shape {pts.shape}")
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
    header_pending = has_header  # the header is the first non-blank row
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            lineno = reader.line_num  # a quoted field may span lines
            if not row or all(not c.strip() for c in row):
                continue
            if header_pending:
                header_pending = False
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
    try:
        return Dataset(points=np.asarray(rows), labels=np.asarray(labels) if label_column is not None else None)
    except InputError as exc:  # a file whose only column is the label has no features
        raise InputError(f"{path}: {exc}") from exc


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
                items = [(int(key), float(val)) for key, val in (item.split(":") for item in parts[1:])]
            except ValueError as exc:
                raise InputError(f"{path}: malformed libsvm line {lineno}: {exc}")
            feats: dict[int, float] = {}
            for key, val in items:
                if key in feats:
                    raise InputError(f"{path}: feature index {key} repeats at line {lineno}")
                feats[key] = val
            if not all(math.isfinite(v) for v in (label, *feats.values())):
                raise InputError(f"{path}: non-finite value at line {lineno}")
            if feats and min(feats) < 1:
                raise InputError(f"{path}: feature index {min(feats)} below 1 at line {lineno}")
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
