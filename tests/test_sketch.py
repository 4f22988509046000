"""The sketch inverses ``ink-estimate`` carries across steps, against a
from-scratch rebuild."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nystream import EstimateOracle, InvariantViolation, KernelSpec, ink_oracle_run
from nystream.evaluation import SyntheticSpec, generate_synthetic
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


def assert_matches_rebuild(sketch, updates=None):
    """Each carried array against a rebuild on the sketch's block, to 1e-9
    of the rebuild's largest entry; or, given the ``updates`` the sketch
    carries since its last rebuild, to ``updates * kappa * u`` of it, where
    u is the unit roundoff and kappa the 2-norm condition number of the
    matrix inverted: ``D + Gamma`` for ``N``, ``K~ + shift I`` for
    ``inv_shift`` and the forms, ``K~ + gamma I`` for ``inv_gamma``."""
    reference = built(sketch.indices, sketch.counts, sketch.gram.copy(), sketch.gamma, sketch.shift)
    rtol = dict.fromkeys(CARRIED, 1e-9)
    if updates is not None:
        # A matrix and its inverse have the same 2-norm condition number.
        for name in ("inv_m", "inv_shift", "inv_gamma"):
            rtol[name] = updates * np.linalg.cond(getattr(reference, name)) * np.finfo(np.float64).eps
        rtol["quad"] = rtol["inv_shift"]
    for name in CARRIED:
        got, want = getattr(sketch, name), getattr(reference, name)
        assert got.shape == want.shape, name
        scale = np.max(np.abs(want), initial=0.0)
        assert np.max(np.abs(got - want), initial=0.0) <= rtol[name] * scale, name


def counted_rebuilds(sketch):
    """The arguments of each :meth:`CarriedSketch.rebuild` call ``sketch``
    makes from now on, in call order."""
    calls = []
    rebuild = sketch.rebuild

    def counted(*args):
        calls.append(args)
        return rebuild(*args)

    sketch.rebuild = counted
    return calls


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
    the buffers: ``query`` moves the sketch it consumes by updates alone
    (no fallback rebuild), bordering ``D`` with the column it was queried
    with last when the step admits it; after every step the sketch holds
    the new dictionary, the kernel on its points as the block, bit for bit,
    and quantities that match a rebuild on that block; its buffers stay
    zero past the block."""
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 1.5, size=(size + len(steps), 2))
    kernel = KernelSpec.gaussian_kernel(float(rng.uniform(0.5, 2.0)))
    shift = alpha_factor(0.5) * gamma
    indices, counts = np.arange(size), rng.integers(1, 10, size=size)
    # The point of the column queried after the last step, which no step admits.
    points = np.vstack([points, rng.normal(0.0, 1.5, size=(1, 2))])

    def query(sketch, indices, counts, new_index):
        """``query`` with the column of ``new_index`` against ``indices``."""
        point = points[new_index]
        cross = pairwise(kernel, point, points[indices])[0]
        return sketch.query(indices, counts, new_index, cross, evaluate(kernel, point, point))

    sketch = built(indices, counts, _symmetric_pairwise(kernel, points[indices]), gamma, shift)
    rebuilds = counted_rebuilds(sketch)
    assert query(sketch, indices, counts, size) is not None
    for new_index, (reweights, evictions, admitted) in enumerate(steps, start=size):
        counts = counts.copy()
        for draw, weight in reweights:
            counts[draw % counts.shape[0]] = weight
        keep = np.ones(indices.shape[0], dtype=bool)
        for draw in evictions:
            keep[draw % keep.shape[0]] = False
        keep[-1] |= not keep.any()  # a successor keeps at least one old column
        # When the columns stay, the sketch moves on the same indices array.
        if not (keep.all() and admitted is None):
            indices, counts = indices[keep], counts[keep]
            if admitted is not None:
                indices, counts = np.append(indices, new_index), np.append(counts, admitted)
        assert query(sketch, indices, counts, new_index + 1) is not None
        assert not rebuilds
        assert sketch.indices is indices and sketch.counts is counts and sketch.size == indices.shape[0]
        assert sketch.gram.tobytes() == _symmetric_pairwise(kernel, points[indices]).tobytes()
        assert_zero_past_the_block(sketch)
        assert_matches_rebuild(sketch)


@pytest.mark.parametrize("n, gamma, q_bar", [(1024, 0.01, 2000), (2000, 0.1, 200)],
                         ids=["estimate-q200", "estimate-q30-long-n2000"])
def test_drift_stays_within_the_condition_bound(n, gamma, q_bar):
    """The benchmark's ``ink-estimate`` streams (clustered data, a gaussian
    kernel of bandwidth 2, epsilon 0.5, problem and chain seed 1; the long
    one cut to 2000 points) rebuild their sketch once, on the first step
    that has one, and carry it by updates from there: several hundred of
    them, on Q up to about 200 at gamma 0.01.  At three points of each
    stream every carried array is within ``updates * kappa * u`` of a
    rebuild on the carried block (:func:`assert_matches_rebuild`).  The
    drift measured at most 0.27 of that bound at these points, and 0.45 at
    every 50th step of problem seeds 1-3, so the bound keeps at least twice
    the worst drift seen as margin."""
    ds = generate_synthetic(SyntheticSpec(n=n, d=3, n_clusters=4, cluster_std=0.5), 1).dataset
    oracle = EstimateOracle(gamma, 0.5)
    rebuilds = counted_rebuilds(oracle._sketch)
    checked = []

    class Checked:
        previous, carried = None, 0

        def begin_step(self, state, new_index, cross, self_term):
            before = len(rebuilds)
            answer = oracle.begin_step(state, new_index, cross, self_term)
            # A step that changes nothing passes its dictionary on whole;
            # any other step makes one update, unless the sketch was rebuilt.
            d = state.dictionary
            self.carried = 0 if len(rebuilds) > before else self.carried + (d is not self.previous)
            self.previous = d
            if state.step in (n // 4, n // 2, n - 1):
                assert_matches_rebuild(oracle._sketch, self.carried)
                checked.append(self.carried)
            return answer

    ink_oracle_run(ds, KernelSpec.gaussian_kernel(2.0), gamma, q_bar, Checked(), rng=1)
    assert len(rebuilds) == 1
    assert len(checked) == 3 and checked[-1] > 500


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
    """On a Q = 180 dictionary, a query whose step evicts, reweights and
    admits moves the sketch inside its buffers: the only sizeable
    allocations are the temporaries of the column moves that compact the
    buffers, well under one (Q + 1)^2 array in all."""
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
    # The column of the next index, against the successor's points.
    point = rng.normal(0.0, 1.5, size=3)
    next_column = pairwise(kernel, point, points[successor[0]])[0], evaluate(kernel, point, point)

    def sketch_before_the_step():
        sketch = built(indices, counts, block, gamma, alpha_factor(0.5) * gamma)
        sketch.query(indices, counts, q, *column)
        return sketch

    def step(sketch):
        return sketch.query(*successor, q + 1, *next_column)

    # The first step's set-up is not counted; each step consumes its sketch.
    assert step(sketch_before_the_step()) is not None
    sketch = sketch_before_the_step()
    buffers, rebuilds = sketch._buffers, counted_rebuilds(sketch)
    peak, answer = peak_bytes(lambda: step(sketch))
    assert answer is not None and not rebuilds and sketch._buffers is buffers
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


def test_query_rejects_a_non_successor():
    """``query`` answers None, and leaves the sketch as it was, for a
    dictionary that one step cannot have made from the sketch's, and
    follows one that it can: keeping columns 1 and 3 and admitting index 4,
    the column it was queried with last."""
    rng = np.random.default_rng(3)
    points = rng.normal(size=(6, 2))
    kernel = KernelSpec.gaussian_kernel(1.0)
    indices, counts = np.arange(4), np.array([1, 2, 3, 4])

    def column(new_index, held):
        return pairwise(kernel, points[new_index], points[held])[0], 1.0

    sketch = built(indices, counts, _symmetric_pairwise(kernel, points[:4]), 0.1, 0.3)
    sketch.query(indices, counts, 4, *column(4, indices))
    rebuilds = counted_rebuilds(sketch)
    held = [sketch.gram.tobytes(), sketch.inv_m.tobytes(), sketch.quad.tobytes()]
    # An index the sketch never held, other than the one the step may admit;
    # no old column kept.
    for stranger in (np.array([0, 5]), np.array([4])):
        assert sketch.query(stranger, np.ones(stranger.shape[0], dtype=np.int64), 5, *column(5, stranger)) is None
        assert sketch.indices is indices
        assert [sketch.gram.tobytes(), sketch.inv_m.tobytes(), sketch.quad.tobytes()] == held
    successor = np.array([1, 3, 4])
    assert sketch.query(successor, np.array([2, 4, 1]), 5, *column(5, successor)) is not None
    assert sketch.indices is successor and not rebuilds
    assert sketch.gram.tobytes() == _symmetric_pairwise(kernel, points[successor]).tobytes()
    assert_matches_rebuild(sketch)


def test_empty_dictionary(capfd):
    """A dictionary emptied by evictions: the rebuild gives empty arrays
    (without LAPACK complaining about a 0 x 0 matrix), and the new column is
    scored alone."""
    empty = np.zeros(0, dtype=np.int64)
    sketch = built(empty, empty, np.zeros((0, 0)), 0.1, 0.3)
    assert sketch.inv_m.shape == sketch.inv_shift.shape == sketch.inv_gamma.shape == (0, 0)
    forms, quad_c, quad_sq, schur = sketch.query(empty, empty, 0, np.zeros(0), 2.0)
    assert forms.tolist() == [2.0 * 2.0 / 2.3] and (quad_c, quad_sq, schur) == (0.0, 0.0, 2.3)
    assert capfd.readouterr() == ("", "")
