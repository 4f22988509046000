"""The sketch inverses ``ink-estimate`` carries across steps, against a
from-scratch rebuild."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nystream import InvariantViolation, KernelSpec
from nystream.kernels import _symmetric_pairwise, evaluate, pairwise
from nystream.leverage import alpha_factor
from nystream.nystrom import Selection, nystrom_approx
from nystream.sampling import selection_weights
from nystream.sketch import CarriedSketch, _add_low_rank, _compact

CARRIED = ("inv_m", "inv_shift", "inv_gamma", "quad")


def built(indices, counts, gram, gamma, shift):
    """A sketch rebuilt for the dictionary ``(indices, counts)`` on ``gram``."""
    sketch = CarriedSketch(gamma, shift)
    sketch.rebuild(indices, counts, gram)
    return sketch


def assert_matches_rebuild(sketch, rtol=1e-9):
    reference = built(sketch.indices, sketch.counts, sketch.gram.copy(), sketch.gamma, sketch.shift)
    for name in CARRIED:
        got, want = getattr(sketch, name), getattr(reference, name)
        assert got.shape == want.shape, name
        scale = np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale, name


# One step's changes: reweights as (position draw, new weight), evictions as
# position draws, and the weight of an admitted column (None: no admission).
STEP = st.tuples(
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 12)), max_size=3),
    st.lists(st.integers(0, 10**6), max_size=2),
    st.one_of(st.none(), st.integers(1, 6)),
)


def assert_zero_past_the_block(sketch):
    """Every buffer entry outside the leading Q x Q blocks is zero."""
    q, buffers = sketch.size, sketch._buffers
    assert not buffers[:, q:].any() and not buffers[:, :, q:].any()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    gamma=st.floats(0.02, 1.0),
    steps=st.lists(STEP, min_size=1, max_size=12),
)
@example(seed=7, size=2, gamma=0.1, steps=[([(0, 3)], [], 2)] * 6 + [([], [1], 1)] + [([], [], 3)] * 5)
def test_updates_match_rebuild(seed, size, gamma, steps):
    """Random gaussian-kernel dictionary blocks through random sequences of
    reweights, evictions and admissions, one of them long enough to outgrow
    the buffers: ``advance`` (or, for a step that keeps every column and
    admits none, ``reweight``) consumes the sketch it moves, which after
    every step holds the new dictionary, the kernel on its points as the
    block, bit for bit, and quantities that match a rebuild on that block;
    its buffers stay zero past the block."""
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 1.5, size=(size + len(steps), 2))
    kernel = KernelSpec.gaussian_kernel(float(rng.uniform(0.5, 2.0)))
    shift = alpha_factor(0.5) * gamma
    indices, counts = np.arange(size), rng.integers(1, 10, size=size)
    sketch = built(indices, counts, _symmetric_pairwise(kernel, points[indices]), gamma, shift)
    for new_index, (reweights, evictions, admitted) in enumerate(steps, start=size):
        counts = counts.copy()
        for draw, weight in reweights:
            counts[draw % counts.shape[0]] = weight
        keep = np.ones(indices.shape[0], dtype=bool)
        for draw in evictions:
            keep[draw % keep.shape[0]] = False
        keep[-1] |= not keep.any()  # a successor keeps at least one old column
        if keep.all() and admitted is None:
            # The columns stay: the sketch moves on the same indices array.
            sketch.reweight(counts)
        else:
            indices, counts = indices[keep], counts[keep]
            if admitted is not None:
                indices, counts = np.append(indices, new_index), np.append(counts, admitted)
            cross = pairwise(kernel, points[new_index], points[sketch.indices])[0]
            self_term = evaluate(kernel, points[new_index], points[new_index])
            pos = sketch.successor(indices, new_index)
            assert pos is not None
            assert sketch.advance(indices, counts, pos, cross, self_term)
        assert sketch.indices is indices and sketch.counts is counts and sketch.size == indices.shape[0]
        assert sketch.gram.tobytes() == _symmetric_pairwise(kernel, points[indices]).tobytes()
        assert sketch.diagonal[: sketch.size].tobytes() == sketch.gram.diagonal().tobytes()
        assert_zero_past_the_block(sketch)
        assert_matches_rebuild(sketch)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 30),
    gamma=st.floats(1e-3, 1.0),
    max_weight=st.integers(1, 40),
)
@example(seed=0, size=30, gamma=1e-3, max_weight=40)
@example(seed=1, size=12, gamma=1e-3, max_weight=1)
def test_rebuild_matches_dense_solves(seed, size, gamma, max_weight):
    """A rebuild's ``N``, shifted inverses and forms against dense inverses
    of ``D + Gamma`` and of ``K~ + s I`` at both shifts, with ``K~`` the
    public ``NystromFactor.materialize`` of the weighted selection on ``D``,
    to 1e-10 relative: on gaussian-kernel blocks of random points, down to
    gamma = 1e-3 and with weights up to 40."""
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 1.5, size=(size, 2))
    block = _symmetric_pairwise(KernelSpec.gaussian_kernel(float(rng.uniform(0.5, 2.0))), points)
    counts = rng.integers(1, max_weight + 1, size=size)
    shift = alpha_factor(0.5) * gamma
    sketch = built(np.arange(size), counts, block, gamma, shift)
    selection = Selection(np.arange(size), selection_weights(counts), size)
    tilde = nystrom_approx(block, selection, gamma).materialize()
    inv_shift = np.linalg.inv(tilde + shift * np.eye(size))
    expected = {
        "inv_m": np.linalg.inv(block + np.diag(gamma / counts)),
        "inv_shift": inv_shift,
        "inv_gamma": np.linalg.inv(tilde + gamma * np.eye(size)),
        "quad": np.einsum("ij,ji->i", block, inv_shift @ block),
    }
    for name, want in expected.items():
        got = getattr(sketch, name)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), name


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    keep=st.lists(st.booleans(), min_size=1, max_size=40),
    slack=st.integers(0, 3),
)
@example(seed=0, keep=[False, True, True, True], slack=0)  # drops the first
@example(seed=1, keep=[True, True, True, False], slack=2)  # drops the last
@example(seed=2, keep=[True, False, False, True, True, False, True], slack=1)  # adjacent
@example(seed=3, keep=[True] * 6, slack=0)  # drops none
@example(seed=4, keep=[False] * 3, slack=1)  # drops all
def test_compaction_is_the_fancy_indexed_block(seed, keep, slack):
    """Compacting a buffer in place leaves numpy's fancy-indexed block of
    the kept rows and columns in its top-left corner, bit for bit, and
    zeros everywhere else."""
    size = len(keep)
    P = np.zeros((size + slack, size + slack))
    P[:size, :size] = np.random.default_rng(seed).normal(size=(size, size))
    pos = np.flatnonzero(keep)
    expected = P[np.ix_(pos, pos)]
    _compact(P, np.flatnonzero(np.logical_not(keep)).tolist(), size)
    m = pos.shape[0]
    assert P[:m, :m].tobytes() == expected.tobytes()
    assert not P[m:].any() and not P[:, m:].any()


def peak_bytes(call):
    """The tracemalloc peak above the starting point while ``call`` runs,
    and its result."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, result


def test_rows_move_without_a_temporary():
    """Dropping the first of 200 positions from a buffer with 40 columns to
    spare moves 199 whole rows and 199 columns.  The rows move as 1-D
    shifts, which numpy makes in place; only the overlapping 2-D column
    move takes a temporary (199 x 199), smaller than a copy of the moved
    rows (199 x 240) would be."""
    size, cap = 200, 240
    P = np.zeros((cap, cap))
    P[:size, :size] = np.random.default_rng(5).normal(size=(size, size))
    expected = P[1:size, 1:size].copy()
    peak, _ = peak_bytes(lambda: _compact(P, [0], size))
    assert P[: size - 1, : size - 1].tobytes() == expected.tobytes()
    assert peak < 8 * (size - 1) * (size - 1) + 4096


def test_a_step_allocates_little_beside_the_buffers():
    """On a Q = 180 dictionary, a step that evicts, reweights and admits
    moves the sketch inside its buffers: the only sizeable allocations are
    the temporaries of the column moves that compact the buffers, well
    under one (Q + 1)^2 array in all."""
    q = 180
    rng = np.random.default_rng(11)
    points = rng.normal(0.0, 1.5, size=(q + 1, 3))
    kernel = KernelSpec.gaussian_kernel(2.0)
    indices, counts = np.arange(q), rng.integers(1, 10, size=q)
    gamma = 0.01
    block = _symmetric_pairwise(kernel, points[:q])
    keep = np.ones(q, dtype=bool)
    keep[[17, 90]] = False
    new_counts = counts[keep]
    new_counts[[5, 120]] += 3
    successor = np.append(indices[keep], q), np.append(new_counts, 2)
    column = pairwise(kernel, points[q], points[:q])[0], evaluate(kernel, points[q], points[q])

    def step(sketch):
        return sketch.advance(*successor, sketch.successor(successor[0], q), *column)

    # The first step's set-up is not counted; each step consumes its sketch.
    assert step(built(indices, counts, block, gamma, alpha_factor(0.5) * gamma))
    sketch = built(indices, counts, block, gamma, alpha_factor(0.5) * gamma)
    buffers = sketch._buffers
    peak, advanced = peak_bytes(lambda: step(sketch))
    assert advanced and sketch._buffers is buffers
    assert peak <= 0.65 * 8 * (q + 1) ** 2
    assert_matches_rebuild(sketch)


def test_a_lost_update_is_an_error():
    """An array whose transpose BLAS cannot update in place (here a
    column-major one) would have its low-rank term written into a copy, by
    ``dgemm`` or, for a rank-one term, ``dger``; that is an error, not a
    silently unchanged array."""
    out = np.asfortranarray(np.arange(9.0).reshape(3, 3))
    with pytest.raises(InvariantViolation, match="copy"):
        _add_low_rank(out, np.ones((3, 1)), np.eye(1), 3)
    with pytest.raises(InvariantViolation, match="copy"):
        _add_low_rank(out, np.ones(3), 1.0, 3)


def test_advance_rejects_a_non_successor():
    """``advance`` takes its positions from ``successor``, which rejects a
    dictionary that one step cannot have made from the sketch's."""
    rng = np.random.default_rng(3)
    points = rng.normal(size=(6, 2))
    kernel = KernelSpec.gaussian_kernel(1.0)
    indices, counts = np.arange(4), np.array([1, 2, 3, 4])

    def sketch():
        return built(indices, counts, _symmetric_pairwise(kernel, points[:4]), 0.1, 0.3)

    # An index the sketch never held, other than the one the step may admit.
    assert sketch().successor(np.array([0, 5]), 4) is None
    # No old column kept.
    assert sketch().successor(np.array([4]), 4) is None
    assert sketch().successor(np.array([1, 3, 4]), 4).tolist() == [1, 3]


def test_empty_dictionary(capfd):
    """A dictionary emptied by evictions: the rebuild gives empty arrays
    (without LAPACK complaining about a 0 x 0 matrix), and the new column is
    scored alone."""
    empty = np.zeros(0, dtype=np.int64)
    sketch = built(empty, empty, np.zeros((0, 0)), 0.1, 0.3)
    assert sketch.inv_m.shape == sketch.inv_shift.shape == sketch.inv_gamma.shape == (0, 0)
    forms, quad_c, quad_sq, schur = sketch.query(np.zeros(0), 2.0)
    assert forms.tolist() == [2.0 * 2.0 / 2.3] and (quad_c, quad_sq, schur) == (0.0, 0.0, 2.3)
    assert capfd.readouterr() == ("", "")
