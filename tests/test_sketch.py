"""The sketch inverses ``ink-estimate`` carries across steps, against a
from-scratch rebuild."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nystream import InvariantViolation, KernelSpec, ink_estimate_run
from nystream.evaluation import SyntheticSpec, generate_synthetic
from nystream.kernels import _symmetric_pairwise, evaluate, pairwise
from nystream.leverage import alpha_factor
from nystream.sketch import CarriedSketch, _add_low_rank, _capacitance_inverse, _kept_block, _runs

CARRIED = ("inv_m", "inv_shift", "inv_gamma", "quad")


def assert_matches_rebuild(sketch, rtol=1e-9):
    reference = CarriedSketch.rebuild(
        sketch.indices, sketch.counts, sketch.gram, sketch.gamma, sketch.shift
    )
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


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    gamma=st.floats(0.02, 1.0),
    steps=st.lists(STEP, min_size=1, max_size=8),
)
def test_updates_match_rebuild(seed, size, gamma, steps):
    """Random gaussian-kernel dictionary blocks through random sequences of
    reweights, evictions and admissions: after every step the moved kernel
    block is the kernel on the new dictionary's points, bit for bit, and the
    quantities advanced on it match a rebuild on it."""
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 1.5, size=(size + len(steps), 2))
    kernel = KernelSpec.gaussian_kernel(float(rng.uniform(0.5, 2.0)))
    shift = alpha_factor(0.5) * gamma
    indices, counts = np.arange(size), rng.integers(1, 10, size=size)
    sketch = CarriedSketch.rebuild(
        indices, counts, _symmetric_pairwise(kernel, points[indices]), gamma, shift
    )
    for new_index, (reweights, evictions, admitted) in enumerate(steps, start=size):
        counts = counts.copy()
        for draw, weight in reweights:
            counts[draw % counts.shape[0]] = weight
        keep = np.ones(indices.shape[0], dtype=bool)
        for draw in evictions:
            keep[draw % keep.shape[0]] = False
        keep[-1] |= not keep.any()  # a successor keeps at least one old column
        indices, counts = indices[keep], counts[keep]
        if admitted is not None:
            indices, counts = np.append(indices, new_index), np.append(counts, admitted)
        cross = pairwise(kernel, points[new_index], points[sketch.indices])[0]
        self_term = evaluate(kernel, points[new_index], points[new_index])
        before = {name: getattr(sketch, name).tobytes() for name in ("gram", *CARRIED)}
        moved = sketch.moved_block(indices, new_index, cross, self_term)
        assert moved is not None
        assert moved[1].tobytes() == _symmetric_pairwise(kernel, points[indices]).tobytes()
        successor = sketch.advance(indices, counts, *moved)
        # The successor's arrays are filled in place, never the predecessor's.
        assert {name: getattr(sketch, name).tobytes() for name in before} == before
        sketch = successor
        assert sketch is not None and sketch.gram is moved[1]
        assert_matches_rebuild(sketch)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    keep=st.lists(st.booleans(), min_size=1, max_size=40).filter(any),
    border=st.booleans(),
)
@example(seed=0, keep=[False, True, True, True], border=False)  # drops the first
@example(seed=1, keep=[True, True, True, False], border=True)  # drops the last
@example(seed=2, keep=[True, False, False, True, True, False, True], border=True)  # adjacent
@example(seed=3, keep=[True] * 6, border=False)  # drops none
@example(seed=4, keep=[True] * 6, border=True)
def test_kept_block_is_the_fancy_indexed_block(seed, keep, border):
    """The run-by-run copy of the kept rows and columns equals numpy's
    fancy-indexed block bit for bit, with zeros in the bordered row and
    column."""
    P = np.random.default_rng(seed).normal(size=(len(keep), len(keep)))
    pos = np.flatnonzero(keep)
    m = pos.shape[0]
    block = _kept_block(P, _runs(pos), m + border)
    assert block.shape == (m + border, m + border)
    assert block[:m, :m].tobytes() == P[np.ix_(pos, pos)].tobytes()
    assert not block[m:].any() and not block[:, m:].any()


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


def test_a_step_allocates_one_array_per_carried_matrix():
    """On a Q = 180 dictionary, a step that evicts, reweights and admits
    allocates little beyond the successor's own arrays: about one
    (Q + 1)^2 array for the moved kernel block and three for the carried
    inverses, each filled in place rather than summed from temporaries."""
    q = 180
    rng = np.random.default_rng(11)
    points = rng.normal(0.0, 1.5, size=(q + 1, 3))
    kernel = KernelSpec.gaussian_kernel(2.0)
    indices, counts = np.arange(q), rng.integers(1, 10, size=q)
    gamma = 0.01
    sketch = CarriedSketch.rebuild(
        indices, counts, _symmetric_pairwise(kernel, points[:q]), gamma, alpha_factor(0.5) * gamma
    )
    keep = np.ones(q, dtype=bool)
    keep[[17, 90]] = False
    new_counts = counts[keep]
    new_counts[[5, 120]] += 3
    successor = np.append(indices[keep], q), np.append(new_counts, 2)
    column = pairwise(kernel, points[q], points[:q])[0], evaluate(kernel, points[q], points[q])
    square = 8 * (q + 1) ** 2

    def move():
        return sketch.moved_block(successor[0], q, *column)

    def advance():
        return sketch.advance(*successor, *moved)

    moved = move()  # first-call set-up is not counted
    peak, moved = peak_bytes(move)
    assert peak <= 1.2 * square
    assert advance() is not None
    peak, advanced = peak_bytes(advance)
    assert advanced is not None
    assert peak <= 3.5 * square
    assert_matches_rebuild(advanced)


def test_a_lost_update_is_an_error():
    """An array whose transpose BLAS cannot update in place (here a
    column-major one) would have its low-rank term written into a copy;
    that is an error, not a silently unchanged array."""
    out = np.asfortranarray(np.arange(9.0).reshape(3, 3))
    with pytest.raises(InvariantViolation, match="copy"):
        _add_low_rank(out, np.ones((3, 1)), np.eye(1))


def test_advance_rejects_a_non_successor():
    """``advance`` takes its block from ``moved_block``, which rejects a
    dictionary that one step cannot have made from the sketch's."""
    rng = np.random.default_rng(3)
    points = rng.normal(size=(6, 2))
    kernel = KernelSpec.gaussian_kernel(1.0)
    indices, counts = np.arange(4), np.array([1, 2, 3, 4])

    def sketch():
        return CarriedSketch.rebuild(indices, counts, _symmetric_pairwise(kernel, points[:4]), 0.1, 0.3)

    # The column of index 4 against the sketch's dictionary.
    column = (pairwise(kernel, points[4], points[:4])[0], evaluate(kernel, points[4], points[4]))
    # An index the sketch never held, other than the one the step may admit.
    assert sketch().moved_block(np.array([0, 5]), 4, *column) is None
    # No old column kept.
    assert sketch().moved_block(np.array([4]), 4, *column) is None


def test_empty_dictionary(capfd):
    """A dictionary emptied by evictions: the rebuild gives empty arrays
    (without LAPACK complaining about a 0 x 0 matrix), and the new column is
    scored alone."""
    empty = np.zeros(0, dtype=np.int64)
    sketch = CarriedSketch.rebuild(empty, empty, np.zeros((0, 0)), 0.1, 0.3)
    assert sketch.inv_m.shape == sketch.inv_shift.shape == sketch.inv_gamma.shape == (0, 0)
    forms, quad_c, quad_sq, schur = sketch.query(np.zeros(0), 2.0)
    assert forms.tolist() == [2.0 * 2.0 / 2.3] and (quad_c, quad_sq, schur) == (0.0, 0.0, 2.3)
    assert capfd.readouterr() == ("", "")


def test_scalar_capacitance_inverse_is_lapacks(monkeypatch):
    """A one-weight step's 1 x 1 capacitance matrices, collected from a
    small-budget run, invert to LAPACK's bits through the reciprocal."""
    seen = []

    def recorded(T):
        seen.append(T.copy())
        return _capacitance_inverse(T)

    monkeypatch.setattr("nystream.sketch._capacitance_inverse", recorded)
    problem = generate_synthetic(SyntheticSpec(n=1000, d=3, n_clusters=4, cluster_std=0.5), rng=1)
    ink_estimate_run(problem.dataset, KernelSpec.gaussian_kernel(2.0), 0.1, 200, 0.5, rng=1)
    scalars = [T for T in seen if T.shape == (1, 1)]
    assert len(scalars) > 100
    for T in scalars:
        assert _capacitance_inverse(T).tobytes() == np.linalg.inv(T).tobytes()
