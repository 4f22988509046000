"""The sketch inverses ``ink-estimate`` carries across steps, against a
from-scratch rebuild."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nystream import KernelSpec
from nystream.kernels import _symmetric_pairwise, evaluate, pairwise
from nystream.leverage import alpha_factor
from nystream.sketch import CarriedSketch

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
        moved = sketch.moved_block(indices, new_index, cross, self_term)
        assert moved is not None
        assert moved[1].tobytes() == _symmetric_pairwise(kernel, points[indices]).tobytes()
        sketch = sketch.advance(indices, counts, *moved)
        assert sketch is not None and sketch.gram is moved[1]
        assert_matches_rebuild(sketch)


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
