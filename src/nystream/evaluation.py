"""Ground-truth verification harness.

Everything here is allowed a second pass over the data (rebuilding dense
prefix matrices is how streaming claims get audited), so none of it is part
of the single-pass pipeline proper.  The upper PSD bound, psi_gap, the exact
effective dimension and the risks are functions of K's spectrum: one private
implementation each, which the public checks feed their own decomposition
and :func:`verify_checkpoints` one ``eig_pairs(K)`` per checkpoint.  The
approximate risk comes from the rank-Q factor of ``K~`` instead.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .kernels import Dataset, KernelSpec, gram
from .leverage import deff_increment_exact, exact_rls
from .linalg import DEFAULT_PSD_TOL, eig_pairs, psd_order_check, symmetrize
from .nystrom import NystromFactor, Selection, build_selection, nystrom_approx
from .pipeline import RunCheckpoint

SCHEMA_VERSION = "1"

CONDITION_TOL = 1e-7


@dataclass(frozen=True)
class FixedDesignProblem:
    """A regression instance with known target values and noise level."""

    dataset: Dataset
    f_star: np.ndarray
    noise_std: float
    mu: float

    def __post_init__(self) -> None:
        f = np.asarray(self.f_star, dtype=np.float64).reshape(-1)
        if f.shape[0] != len(self.dataset):
            raise InputError("target vector length must match the dataset")
        if self.noise_std < 0:
            raise InputError("noise_std must be nonnegative")
        if not self.mu > 0:
            raise InputError("mu must be positive")
        object.__setattr__(self, "f_star", f)

    def prefix(self, t: int) -> "FixedDesignProblem":
        sub = Dataset(
            points=self.dataset.points[:t],
            labels=None if self.dataset.labels is None else self.dataset.labels[:t],
        )
        return FixedDesignProblem(
            dataset=sub, f_star=self.f_star[:t], noise_std=self.noise_std, mu=self.mu
        )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the two-sided PSD reconstruction check at one step."""

    step: int
    lower_psd_ok: bool
    upper_psd_ok: bool
    spectral_gap: float
    psi_gap: float

    @property
    def ok(self) -> bool:
        return self.lower_psd_ok and self.upper_psd_ok


def check_condition(
    K: np.ndarray,
    K_tilde: np.ndarray,
    gamma: float,
    epsilon: float,
    *,
    step: int = 0,
    selection: Selection | None = None,
) -> ConditionReport:
    """Check ``0 <= K - K_tilde <= gamma/(1-eps) * K (K + gamma I)^{-1}``
    in the PSD order (relative tolerance ``CONDITION_TOL``), and record the
    spectral gap.

    When a selection is supplied its projection-gap certificate is computed
    as well (see :func:`psi_gap`); otherwise that field is NaN.
    """
    K = symmetrize(K)
    K_tilde = symmetrize(K_tilde)
    if K.shape != K_tilde.shape:
        raise InputError("matrices must share a shape")
    return _condition(*_spectrum(K), K - K_tilde, gamma, epsilon, step, selection)


def psi_gap(K: np.ndarray, selection: Selection, gamma: float) -> float:
    """Largest eigenvalue of the whitened projection gap of a selection.

    The kernel matrix is whitened by its own soft-thresholded spectrum; the
    returned value is the worst direction the weighted selection fails to
    cover.  A value of at most ``eps`` certifies the two-sided PSD condition
    at that accuracy.
    """
    return _psi(*_spectrum(K), selection, gamma)


def fixed_design_risk(K_effective: np.ndarray, problem: FixedDesignProblem) -> float:
    """Closed-form expected squared prediction error at the training inputs.

    For the predictor built from ``K_effective`` the expectation over label
    noise splits into a bias and a variance term:
    ``mu^2 ||(K + mu I)^{-1} f*||^2 + sigma^2 tr(K^2 (K + mu I)^{-2})``.
    """
    K_effective = symmetrize(K_effective)
    if K_effective.shape[0] != len(problem.dataset):
        raise InputError("matrix size must match the problem")
    return _risk(*_spectrum(K_effective), problem)


def _spectrum(K: np.ndarray, *, require_psd: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues clipped at zero, in eig_pairs' order;
    with ``require_psd``, ``K`` is first checked by validate_psd's rule."""
    pair = eig_pairs(K)
    lam = pair.eigenvalues
    if require_psd and lam.size:
        if lam[-1] < -DEFAULT_PSD_TOL * max(1.0, float(np.max(np.abs(lam)))):
            raise InputError(f"kernel matrix is not PSD (min eigenvalue {lam[-1]:.3e})")
    return pair.eigenvectors, np.clip(lam, 0.0, None)


def _condition(
    U: np.ndarray, lam: np.ndarray, diff: np.ndarray, gamma: float, epsilon: float,
    step: int, selection: Selection | None,
) -> ConditionReport:
    if not gamma > 0:
        raise InputError("gamma must be positive")
    if not 0.0 <= epsilon < 1.0:
        raise InputError("epsilon must lie in [0, 1)")
    # One eigvalsh gives the lower check (psd_order_check's rule) and the gap.
    gaps = np.linalg.eigvalsh(diff) if diff.size else np.zeros(1)
    gap = float(np.max(np.abs(gaps)))
    lower_ok = bool(gaps[0] >= -CONDITION_TOL * max(1.0, gap))
    # The upper bound gamma/(1-eps) K (K + gamma I)^{-1} is root @ root.T.
    root = U * np.sqrt(gamma / (1.0 - epsilon) * lam / (lam + gamma))
    upper_ok = psd_order_check(diff, root @ root.T, CONDITION_TOL)
    psi = _psi(U, lam, selection, gamma) if selection is not None else float("nan")
    return ConditionReport(step, lower_ok, upper_ok, gap, psi)


def _psi(U: np.ndarray, lam: np.ndarray, selection: Selection, gamma: float) -> float:
    if selection.t != lam.shape[0]:
        raise InputError("selection row count must match the kernel matrix")
    ratios = lam / (lam + gamma)
    M = np.diag(ratios)
    if M.size == 0:
        return 0.0
    if selection.size:
        idx, w = selection.arrays()
        projected = U[idx].T * np.sqrt(ratios)[:, None] * w
        M -= projected @ projected.T
    return float(np.max(np.linalg.eigvalsh(M)))


def _risk(U: np.ndarray, lam: np.ndarray, problem: FixedDesignProblem) -> float:
    mu = problem.mu
    bias_vec = (U.T @ problem.f_star) / (lam + mu)
    bias_sq = mu**2 * float(bias_vec @ bias_vec)
    variance = problem.noise_std**2 * float(np.sum((lam / (lam + mu)) ** 2))
    return bias_sq + variance


def _factored_risk(F: np.ndarray, problem: FixedDesignProblem) -> float:
    """The risk of ``fixed_design_risk(F @ F.T, problem)`` from the Q x Q
    matrix ``F^T F``, whose spectrum is the nonzero spectrum of ``F F^T``;
    the bias ``||f - F (F^T F + mu I)^{-1} F^T f||^2`` is Woodbury's form of
    ``mu^2 ||(F F^T + mu I)^{-1} f||^2``."""
    V, s = _spectrum(F.T @ F)
    mu, f = problem.mu, problem.f_star
    residual = f - F @ (V @ ((V.T @ (F.T @ f)) / (s + mu)))
    variance = problem.noise_std**2 * float(np.sum((s / (s + mu)) ** 2))
    return float(residual @ residual) + variance


def risk_ratio_bound(gamma: float, mu: float, epsilon: float) -> float:
    """Multiplicative factor relating approximate and exact risk."""
    if not 0.0 <= epsilon < 1.0:
        raise InputError("epsilon must lie in [0, 1)")
    return (1.0 + (gamma / mu) / (1.0 - epsilon)) ** 2


_TARGETS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "sine": lambda X: np.sin(X.sum(axis=1)),
    "tanh": lambda X: np.tanh(X.sum(axis=1)),
    "bump": lambda X: np.exp(-0.5 * np.sum(X**2, axis=1)),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a clustered fixed-design instance.

    Cluster sizes halve geometrically, which concentrates kernel mass on the
    big clusters and makes uniform column sampling fail first.
    """

    n: int
    d: int
    n_clusters: int
    cluster_std: float
    target: str = "sine"
    sigma: float = 0.1
    mu: float = 1.0
    center_spread: float = 2.0


def generate_synthetic(spec: SyntheticSpec, rng) -> FixedDesignProblem:
    """Sample a clustered gaussian problem; deterministic for a given spec
    and seed."""
    if spec.n < 1:
        raise InputError("n must be at least 1")
    if spec.target not in _TARGETS:
        raise InputError(f"unknown target {spec.target!r}; options: {sorted(_TARGETS)}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    shares = np.array([2.0**-j for j in range(spec.n_clusters)])
    sizes = np.maximum(1, np.floor(spec.n * shares / shares.sum()).astype(int))
    while sizes.sum() > spec.n:
        sizes[np.argmax(sizes)] -= 1
    sizes[0] += spec.n - sizes.sum()
    centers = gen.normal(0.0, spec.center_spread, size=(spec.n_clusters, spec.d))
    blocks = [
        centers[j] + spec.cluster_std * gen.normal(size=(sizes[j], spec.d))
        for j in range(spec.n_clusters)
    ]
    points = np.vstack(blocks)
    f_star = _TARGETS[spec.target](points)
    labels = f_star + spec.sigma * gen.normal(size=spec.n)
    dataset = Dataset(points=points, labels=labels)
    return FixedDesignProblem(
        dataset=dataset, f_star=f_star, noise_std=spec.sigma, mu=spec.mu
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Violations found while replaying a stream against the exact formulas."""

    t_max: int
    violations: tuple[tuple[str, int, int, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def monotonicity_audit(
    dataset: Dataset, kernel: KernelSpec, gamma: float, t_max: int
) -> MonotonicityReport:
    """Replay prefixes of a stream and check the exact-score monotonicity
    laws: scores and probabilities never increase, the effective dimension
    never decreases, its increment matches the bordering formula, and the
    Schur complement stays above gamma.
    """
    t_max = min(int(t_max), len(dataset))
    if t_max < 2:
        return MonotonicityReport(t_max=t_max, violations=())
    K = gram(dataset, kernel, t_max)
    violations: list[tuple[str, int, int, float]] = []
    prev = exact_rls(K[:1, :1], gamma)
    for t in range(1, t_max):
        cur = exact_rls(K[: t + 1, : t + 1], gamma)
        tau_up = cur.tau[:t] - prev.tau
        for i in np.flatnonzero(tau_up > 1e-9):
            violations.append(("tau", t + 1, int(i), float(tau_up[i])))
        if prev.deff > 0 and cur.deff > 0:
            p_up = cur.probabilities[:t] - prev.probabilities
            for i in np.flatnonzero(p_up > 1e-9):
                violations.append(("probability", t + 1, int(i), float(p_up[i])))
        if cur.deff < prev.deff - 1e-9:
            violations.append(("deff", t + 1, -1, float(prev.deff - cur.deff)))
        delta, xi = deff_increment_exact(K[:t, :t], K[:t, t], float(K[t, t]), gamma)
        if xi < gamma - 1e-9:
            violations.append(("xi", t + 1, -1, float(gamma - xi)))
        gap = abs(cur.deff - prev.deff - delta)
        if gap > 1e-8:
            violations.append(("increment", t + 1, -1, float(gap)))
        prev = cur
    return MonotonicityReport(t_max=t_max, violations=tuple(violations))


def checkpoint_selection(
    checkpoint: RunCheckpoint, t: int, algorithm: str
) -> Selection:
    """Rebuild the selection a checkpoint describes.

    Streaming checkpoints store integer dictionary weights (selection entries
    are their square roots); batch checkpoints store the final real weights
    directly.
    """
    if algorithm == "batch-exact":
        pairs = {int(i): float(w) for i, w in zip(checkpoint.indices, checkpoint.weights)}
        return build_selection(checkpoint.indices, pairs, t)
    weights = {int(i): math.sqrt(float(b)) for i, b in zip(checkpoint.indices, checkpoint.weights)}
    return build_selection(checkpoint.indices, weights, t)


def rebuild_factor(
    dataset: Dataset, kernel: KernelSpec, selection: Selection, gamma: float
) -> NystromFactor:
    """Second pass: assemble the full-row factor for a stored selection."""
    K = gram(dataset, kernel, selection.t)
    return nystrom_approx(K, selection, gamma)


@dataclass(frozen=True)
class CheckpointRecord:
    """One verified checkpoint, ready for CSV/JSON emission."""

    step: int
    dict_size: int
    deff_exact: float
    deff_tilde: float
    spectral_gap: float
    psi_gap: float
    lower_ok: bool
    upper_ok: bool
    risk_exact: float = float("nan")
    risk_approx: float = float("nan")
    risk_ratio_bound: float = float("nan")

    def as_dict(self) -> dict:
        fields = asdict(self)
        return {"t": fields.pop("step"), "Q_t": fields.pop("dict_size"), **fields}


def verify_checkpoints(
    dataset: Dataset,
    kernel: KernelSpec,
    gamma: float,
    epsilon: float,
    checkpoints: Sequence[RunCheckpoint],
    algorithm: str,
    *,
    problem: FixedDesignProblem | None = None,
) -> list[CheckpointRecord]:
    """Re-stream the data and verify every checkpoint of a finished run.

    Rebuilds the dense prefix matrix and the checkpoint's approximation,
    evaluates both PSD inequalities, the spectral and projection gaps, the
    exact effective dimension, and (when targets are known) the closed-form
    risks of the exact and approximate solvers.  Everything derived from K
    comes from one eigendecomposition of it per checkpoint.
    """
    records: list[CheckpointRecord] = []
    for cp in checkpoints:
        t = cp.step
        K = gram(dataset, kernel, t)
        selection = checkpoint_selection(cp, t, algorithm)
        # materialize() as F F^T, keeping the rank-Q factor for the risk.
        F = nystrom_approx(K, selection, gamma).whitened()
        K_tilde = F @ F.T
        U, lam = _spectrum(K, require_psd=True)
        report = _condition(U, lam, K - K_tilde, gamma, epsilon, t, selection)
        deff_exact = float(np.sum(lam / (lam + gamma)))
        risk_exact = risk_approx = bound = float("nan")
        if problem is not None:
            sub = problem.prefix(t)
            risk_exact = _risk(U, lam, sub)
            risk_approx = _factored_risk(F, sub)
            bound = risk_ratio_bound(gamma, problem.mu, epsilon)
        records.append(CheckpointRecord(
            step=t, dict_size=len(set(selection.indices)), deff_exact=deff_exact,
            deff_tilde=cp.deff_tilde, spectral_gap=report.spectral_gap, psi_gap=report.psi_gap,
            lower_ok=report.lower_psd_ok, upper_ok=report.upper_psd_ok,
            risk_exact=risk_exact, risk_approx=risk_approx, risk_ratio_bound=bound,
        ))
    return records


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_records_csv(records: Sequence[CheckpointRecord], path) -> None:
    """Plot-ready CSV: '.' decimals, 17 significant digits, no locale."""
    if not records:
        raise InputError("nothing to write")
    fields = list(records[0].as_dict())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            writer.writerow([_fmt(v) for v in rec.as_dict().values()])


def write_records_json(records: Sequence[CheckpointRecord], path, *, meta: dict | None = None) -> None:
    payload = {
        "spec_version": SCHEMA_VERSION,
        "records": [rec.as_dict() for rec in records],
    }
    if meta:
        payload.update(meta)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
