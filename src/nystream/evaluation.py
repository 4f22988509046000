"""Ground-truth verification harness.

Everything here is allowed a second pass over the data (rebuilding dense
prefix matrices is how streaming claims get audited), so none of it is part
of the single-pass pipeline proper.  The upper PSD bound, psi_gap, the exact
effective dimension and the risks are functions of K's spectrum: one private
construction each of the upper-bound gap matrix and psi's matrix, which the
public checks feed their own decomposition and :func:`verify_checkpoints`
one eigendecomposition of K per checkpoint.  The approximate risk comes from
the rank-Q factor of ``K~`` instead.

:func:`verify_checkpoints` uses two threads, its caller's and one helper
that each call starts and joins, and runs a checkpoint's independent dense
eigenproblems two at a time: K's eigendecomposition beside the eigenvalues
of ``K - K~``, then the eigenvalues of the upper-bound gap beside psi's.
Each thread's LAPACK call uses the process's BLAS threads, one each when the
BLAS is pinned to one thread.  A multi-threaded BLAS competes with the
overlap for the cores, and so does ``sweep --jobs N``, which runs up to 2N
threads; a BLAS that is not thread-safe must not be shared by numpy and
scipy, which call it from both threads at once.  A checkpoint holds at most
four t x t arrays at once (K, ``K - K~`` and the two-array workspace of K's
eigenvectors), besides numpy's copy of the matrix whose eigenvalues it
takes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError, half_open_unit, non_negative, positive, positive_int
from .kernels import DESK_SCALE_CAP, Dataset, KernelSpec, gram
from .leverage import deff_increment_exact, exact_rls
from .linalg import DEFAULT_PSD_TOL, _finite_bounds, _psd_within, symmetrize
from .nystrom import NystromFactor, Selection, _gathered
from .pipeline import ALGORITHMS, RunCheckpoint
from .sampling import selection_weights

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
        non_negative("noise_std", self.noise_std)
        positive("mu", self.mu)
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
    positive("gamma", gamma)
    half_open_unit("epsilon", epsilon)
    K = symmetrize(K)
    K_tilde = symmetrize(K_tilde)
    if K.shape != K_tilde.shape:
        raise InputError("matrices must share a shape")
    U, lam = _spectrum(*np.linalg.eigh(K))
    diff = K - K_tilde
    gaps = _eigenvalues(diff)
    margins = _eigenvalues(_upper_gap(U, lam, diff, gamma, epsilon))
    psi = None if selection is None else _eigenvalues(_psi_matrix(U, lam, selection, gamma))
    return _report(step, gaps, margins, psi)


def psi_gap(K: np.ndarray, selection: Selection, gamma: float) -> float:
    """Largest eigenvalue of the whitened projection gap of a selection.

    The kernel matrix is whitened by its own soft-thresholded spectrum; the
    returned value is the worst direction the weighted selection fails to
    cover.  A value of at most ``eps`` certifies the two-sided PSD condition
    at that accuracy.
    """
    positive("gamma", gamma)
    U, lam = _spectrum(*np.linalg.eigh(symmetrize(K)))
    return float(np.max(_eigenvalues(_psi_matrix(U, lam, selection, gamma))))


def fixed_design_risk(K_effective: np.ndarray, problem: FixedDesignProblem) -> float:
    """Closed-form expected squared prediction error at the training inputs.

    For the predictor built from ``K_effective`` the expectation over label
    noise splits into a bias and a variance term:
    ``mu^2 ||(K + mu I)^{-1} f*||^2 + sigma^2 tr(K^2 (K + mu I)^{-2})``.
    """
    K_effective = symmetrize(K_effective)
    if K_effective.shape[0] != len(problem.dataset):
        raise InputError("matrix size must match the problem")
    return _risk(*_spectrum(*np.linalg.eigh(K_effective)), problem)


def _spectrum(lam: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors and eigenvalues clipped at zero, from the eigensolution
    ``(lam, V)`` of an exactly symmetric matrix, in the order and layout the
    solver wrote them: every reader sums over the spectrum."""
    return V, np.clip(lam, 0.0, None)


def _require_psd(lam: np.ndarray) -> None:
    """validate_psd's rule on the eigenvalues of a kernel matrix."""
    if lam.size and not _psd_within(lam, DEFAULT_PSD_TOL):
        raise InputError(f"kernel matrix is not PSD (min eigenvalue {lam.min():.3e})")


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """numpy's eigenvalues of a symmetric ``A``; ``[0.0]`` for an empty one."""
    return np.linalg.eigvalsh(A) if A.size else np.zeros(1)


def _upper_gap(U: np.ndarray, lam: np.ndarray, diff: np.ndarray, gamma: float, epsilon: float) -> np.ndarray:
    """The upper bound ``gamma/(1-eps) K (K + gamma I)^{-1}`` minus ``diff``
    (``K - K~``): the matrix whose PSD-ness is the upper check."""
    # The bound is root @ root.T.  It and ``diff`` are exactly symmetric, so
    # their difference is too and goes to the eigensolvers as it is.
    root = U * np.sqrt(gamma / (1.0 - epsilon) * lam / (lam + gamma))
    gap = root @ root.T
    del root
    gap -= diff
    return gap


def _psi_matrix(U: np.ndarray, lam: np.ndarray, selection: Selection, gamma: float) -> np.ndarray:
    """The whitened projection gap whose largest eigenvalue is psi_gap."""
    if selection.t != lam.shape[0]:
        raise InputError("selection row count must match the kernel matrix")
    ratios = lam / (lam + gamma)
    M = np.diag(ratios)
    if selection.size:
        projected = U[selection.indices].T * np.sqrt(ratios)[:, None] * selection.weights
        M -= projected @ projected.T
    return M


def _report(step: int, gaps: np.ndarray, margins: np.ndarray, psi: np.ndarray | None) -> ConditionReport:
    """The report from the eigenvalues of ``K - K~`` (the lower check and
    the gap), of the upper-bound gap and, when a selection was given, of
    psi's matrix."""
    return ConditionReport(
        step, _psd_within(gaps, CONDITION_TOL), _psd_within(margins, CONDITION_TOL),
        float(np.max(np.abs(gaps))), float("nan") if psi is None else float(np.max(psi)),
    )


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
    V, s = _spectrum(*np.linalg.eigh(F.T @ F))
    mu, f = problem.mu, problem.f_star
    residual = f - F @ (V @ ((V.T @ (F.T @ f)) / (s + mu)))
    variance = problem.noise_std**2 * float(np.sum((s / (s + mu)) ** 2))
    return float(residual @ residual) + variance


def risk_ratio_bound(gamma: float, mu: float, epsilon: float) -> float:
    """Multiplicative factor relating approximate and exact risk."""
    positive("gamma", gamma)
    positive("mu", mu)
    half_open_unit("epsilon", epsilon)
    return (1.0 + (gamma / mu) / (1.0 - epsilon)) ** 2


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a clustered fixed-design instance.

    Cluster centers are drawn with standard deviation 2 and sizes halve
    geometrically, which concentrates kernel mass on the big clusters and
    makes uniform column sampling fail first.  The target function is
    ``sin`` of the coordinate sum.
    """

    n: int
    d: int
    n_clusters: int
    cluster_std: float
    sigma: float = 0.1
    mu: float = 1.0


def generate_synthetic(spec: SyntheticSpec, rng) -> FixedDesignProblem:
    """Sample a clustered gaussian problem; deterministic for a given spec
    and seed."""
    positive_int("n", spec.n)
    gen = np.random.default_rng(rng)
    shares = np.array([2.0**-j for j in range(spec.n_clusters)])
    sizes = np.maximum(1, np.floor(spec.n * shares / shares.sum()).astype(int))
    while sizes.sum() > spec.n:
        sizes[np.argmax(sizes)] -= 1
    sizes[0] += spec.n - sizes.sum()
    centers = gen.normal(0.0, 2.0, size=(spec.n_clusters, spec.d))
    blocks = [
        centers[j] + spec.cluster_std * gen.normal(size=(sizes[j], spec.d))
        for j in range(spec.n_clusters)
    ]
    points = np.vstack(blocks)
    f_star = np.sin(points.sum(axis=1))
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
    positive("gamma", gamma)
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


def checkpoint_selection(checkpoint: RunCheckpoint, algorithm: str) -> Selection:
    """Rebuild the selection a checkpoint describes, over its first
    ``checkpoint.step`` columns.

    Streaming checkpoints store integer dictionary weights (selection entries
    are their square roots); batch checkpoints store the final real weights
    directly.
    """
    weights = np.asarray(checkpoint.weights, dtype=np.float64)
    if algorithm != "batch-exact":
        weights = selection_weights(weights)
    return Selection(checkpoint.indices, weights, checkpoint.step)


def rebuild_factor(
    dataset: Dataset, kernel: KernelSpec, selection: Selection, gamma: float
) -> NystromFactor:
    """Second pass: assemble the full-row factor for a stored selection."""
    positive("gamma", gamma)
    K = gram(dataset, kernel, selection.t)
    _finite_bounds(K)  # gram builds K exactly symmetric, so this is its one check
    return _gathered(K, selection, gamma)


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

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok

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
    comes from one eigendecomposition of it per checkpoint, which runs on a
    helper thread beside the eigenvalues of ``K - K~`` (see the module
    docstring); the call starts that thread and joins it before it returns
    or raises.  Every checkpoint's t must lie in 1..n and within
    ``DESK_SCALE_CAP``, and a ``problem``'s dataset must hold ``dataset``'s
    points; these, gamma, epsilon and the algorithm are all checked before
    any kernel work.
    """
    if algorithm not in ALGORITHMS:
        raise InputError(f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}")
    positive("gamma", gamma)
    half_open_unit("epsilon", epsilon)
    if problem is not None and not np.array_equal(problem.dataset.points, dataset.points):
        raise InputError(
            f"the problem's dataset (points of shape {problem.dataset.points.shape}) does not hold the verified "
            f"dataset's points (shape {dataset.points.shape}): its risks would be another dataset's"
        )
    n = len(dataset)
    top = min(n, DESK_SCALE_CAP)
    for cp in checkpoints:
        if not 1 <= cp.step <= top:
            raise InputError(
                f"checkpoint t={cp.step} is outside 1..{top}: the dataset has {n} points "
                f"and verification materializes at most {DESK_SCALE_CAP}"
            )
    # Imported here, not at module level: only verify pays for it.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as helper:
        # Start the thread now, so that each task wakes an idle thread (see
        # _verified): a thread started by its first task runs it at once.
        helper.submit(int).result()
        return [_verified(dataset, kernel, gamma, epsilon, cp, algorithm, problem, helper) for cp in checkpoints]


def _verified(
    dataset: Dataset, kernel: KernelSpec, gamma: float, epsilon: float,
    cp: RunCheckpoint, algorithm: str, problem: FixedDesignProblem | None, helper,
) -> CheckpointRecord:
    """One checkpoint of :func:`verify_checkpoints`, with ``helper`` an
    executor whose one thread runs :func:`_evd`; the checkpoint's t x t
    arrays are freed on return, before the next checkpoint builds its own."""
    t = cp.step
    K = gram(dataset, kernel, t)
    _finite_bounds(K)  # gram builds K exactly symmetric, so this is its one check
    selection = checkpoint_selection(cp, algorithm)
    # materialize() as F F^T, keeping the rank-Q factor for the risk;
    # K - K~ is formed in K~'s buffer, and K's buffer then takes K's
    # eigenvectors.
    try:
        F = _gathered(K, selection, gamma).whitened()
    except NumericalError:
        _require_psd(np.linalg.eigvalsh(K))  # a K that is not PSD fails as such
        raise
    diff = F @ F.T
    np.subtract(K, diff, out=diff)
    # The helper thread runs only scipy's in-place eigh (_evd); this thread
    # builds every t x t array and runs numpy's eigvalsh.  numpy copies its
    # input and runs LAPACK with the GIL released, while scipy's f2py
    # wrapper holds the GIL for its whole LAPACK call.  So each task is
    # submitted just before the numpy call beside it: the woken helper needs
    # the GIL, which this thread gives up microseconds later on entering
    # numpy's LAPACK call (long before the interpreter's switch interval
    # would force it), and the two then run at once; had scipy taken the GIL
    # first, numpy could not start until scipy returned.  Keeping numpy's
    # copies on this thread also keeps them out of the helper's malloc
    # arena.
    evd, gaps = _beside(helper.submit(_evd, K, False), np.linalg.eigvalsh, diff)
    del K
    _require_psd(evd[0])
    U, lam = _spectrum(*evd)
    upper = _upper_gap(U, lam, diff, gamma, epsilon)
    del diff
    psi_matrix = _psi_matrix(U, lam, selection, gamma)
    margins, psi = _beside(helper.submit(_evd, upper, True), np.linalg.eigvalsh, psi_matrix)
    del upper, psi_matrix
    report = _report(t, gaps, margins, psi)
    deff_exact = float(np.sum(lam / (lam + gamma)))
    risk_exact = risk_approx = bound = float("nan")
    if problem is not None:
        sub = problem.prefix(t)
        risk_exact = _risk(U, lam, sub)
        risk_approx = _factored_risk(F, sub)
        bound = risk_ratio_bound(gamma, problem.mu, epsilon)
    return CheckpointRecord(
        step=t, dict_size=cp.dict_size, deff_exact=deff_exact,
        deff_tilde=cp.deff_tilde, spectral_gap=report.spectral_gap, psi_gap=report.psi_gap,
        lower_ok=report.lower_psd_ok, upper_ok=report.upper_psd_ok,
        risk_exact=risk_exact, risk_approx=risk_approx, risk_ratio_bound=bound,
    )


def _evd(A: np.ndarray, eigvals_only: bool):
    """scipy's divide-and-conquer ``eigh`` of the exactly symmetric ``A``,
    computed in ``A``'s buffer, which it overwrites (with the eigenvectors,
    unless ``eigvals_only``): ``A.T`` is the column-major array LAPACK works
    on in place, and for a symmetric ``A`` it is the same matrix."""
    return scipy.linalg.eigh(A.T, eigvals_only=eigvals_only, overwrite_a=True, driver="evd", check_finite=False)


def _beside(future, own, arg):
    """``(future.result(), own(arg))``, with ``own`` run on this thread while
    the future's task runs on the helper.  An error from ``own`` is raised
    at once; the helper's task is joined when the executor shuts down.  The
    future is dropped on return, and with it the reference its result
    holds."""
    mine = own(arg)
    return future.result(), mine


def field_text(value) -> str:
    """An output CSV field: 1/0 for a bool, 17 significant digits for a float."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_json(payload: dict, path) -> None:
    """An output file's byte-stable JSON: two-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_records_csv(records: Sequence[CheckpointRecord], path) -> None:
    """Plot-ready CSV: '.' decimals, 17 significant digits, no locale."""
    if not records:
        raise InputError("nothing to write")
    fields = list(records[0].as_dict())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rec in records:
            writer.writerow([field_text(v) for v in rec.as_dict().values()])


def write_records_json(records: Sequence[CheckpointRecord], path, *, meta: dict | None = None) -> None:
    payload = {
        "spec_version": SCHEMA_VERSION,
        "records": [rec.as_dict() for rec in records],
    }
    if meta:
        payload.update(meta)
    write_json(payload, path)
