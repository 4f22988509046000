import math

import numpy as np
import pytest

from nystream import Dictionary, InputError, RngHandle, direct_sample, selection_weights, shrink_expand
from nystream.sampling import _PURPOSE_CHAIN


def chain_setup(target, q_bar=20):
    """Probability that makes a weight chain stop exactly at ``target``:
    the loop runs while b <= 1/(p * q_bar), so put that bound at
    target - 1/2."""
    return 1.0 / ((target - 0.5) * q_bar)


class TestRngHandle:
    def test_same_key_reproduces(self):
        h = RngHandle(seed=7)
        a = h.chain_stream(3, 5).random(4)
        b = h.chain_stream(3, 5).random(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        h = RngHandle(seed=7)
        a = h.chain_stream(3, 5).random(4)
        b = h.chain_stream(3, 6).random(4)
        c = h.chain_stream(4, 5).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_distinct_seeds_differ(self):
        a = RngHandle(seed=1).chain_stream(0, 0).random(4)
        b = RngHandle(seed=2).chain_stream(0, 0).random(4)
        assert not np.array_equal(a, b)


    def test_draws_match_a_fresh_philox_after_partial_use(self):
        """The re-keyed chain generator draws what a fresh Philox with the
        same key draws, even when the previous substream left a half-used
        output buffer and a cached 32-bit half behind."""
        h = RngHandle(seed=12345)
        keys = [(1, 0), (1, 5), (2, 5), (0, 2**28 - 2), (2**28 - 2, 3), (1, 0)]
        for step, index in keys:
            gen = h.chain_stream(step, index)
            key, _counter = h._key(_PURPOSE_CHAIN, step, index)
            fresh = np.random.Generator(np.random.Philox(key=key))
            for draw in (
                lambda g: g.random(2),
                lambda g: g.random(3),
                lambda g: g.integers(0, 2**32 - 1, size=3, dtype=np.uint32),
                lambda g: g.random(2, dtype=np.float32),
                lambda g: g.random(),
                lambda g: g.standard_normal(2),
            ):
                assert np.array_equal(draw(gen), draw(fresh))

    def test_key_components_past_2_pow_28_fold_into_the_counter(self):
        """Each component is stored plus one: the low 28 bits in the key, the
        rest in Philox counter words 2 and 3.  Components from 2**28 - 1 on
        draw what a fresh Philox with that key and counter draws, and differ
        from each other and from the in-range substream that shares their
        key; negative components are rejected."""
        h = RngHandle(seed=5)
        for step, index in ((-1, 0), (0, -1)):
            with pytest.raises(InputError, match="out of range"):
                h._key(_PURPOSE_CHAIN, step, index)
        big = 2**28
        coords = [(0, 5), (big, 5), (2 * big, 5), (big - 1, 5), (0, big + 5), (big, big + 5), (2**40, 3)]
        draws = []
        for step, index in coords:
            got = h.chain_stream(step, index).random(4)
            key, counter = h._key(_PURPOSE_CHAIN, step, index)
            assert counter == (0, 0, (step + 1) >> 28, (index + 1) >> 28)
            fresh = np.random.Generator(np.random.Philox(key=key, counter=counter))
            assert np.array_equal(got, fresh.random(4))
            draws.append(got.tolist())
        assert h._key(_PURPOSE_CHAIN, big, 5)[0] == h._key(_PURPOSE_CHAIN, 0, 5)[0]
        assert h._key(_PURPOSE_CHAIN, big, 5) != h._key(_PURPOSE_CHAIN, 0, 5)
        assert len({tuple(d) for d in draws}) == len(coords)
        a = h.chain_stream(big - 1, 1).random(4)
        b = h.chain_stream(big - 1, 2).random(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, -(2**64) + 5, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        """The seed is the Philox key's low word: a negative or wider seed
        would draw what the seed it equals modulo 2**64 draws."""
        with pytest.raises(InputError, match=rf"seed {seed} is outside \[0, 2\*\*64\)"):
            RngHandle(seed=seed)

    def test_extreme_seeds_accepted(self):
        a = RngHandle(seed=0).chain_stream(1, 1).random(4)
        b = RngHandle(seed=2**64 - 1).chain_stream(1, 1).random(4)
        assert not np.array_equal(a, b)

    def test_one_generator_per_handle(self):
        """A returned generator is valid until the handle's next call; the
        cached pair takes no part in equality, hashing or repr."""
        h = RngHandle(seed=3)
        assert h.chain_stream(1, 2) is h.chain_stream(2, 1)
        assert h == RngHandle(seed=3) and hash(h) == hash(RngHandle(seed=3))
        assert repr(h) == "RngHandle(seed=3)"


class TestDictionary:
    def test_indices_sorted(self):
        d = Dictionary.from_weights({5: 1, 2: 3}, q_bar=4)
        assert d.indices.tolist() == [2, 5]
        assert d.size == 2

    def test_position_aligned_int64_arrays(self):
        d = Dictionary.from_weights({9: 4, 2: 3, 5: 1}, q_bar=4)
        assert d.counts.tolist() == [3, 1, 4]
        assert d.indices.dtype == d.counts.dtype == np.int64
        assert d.weights == {2: 3, 5: 1, 9: 4}

    def test_rejects_bad_weight(self):
        with pytest.raises(InputError):
            Dictionary.from_weights({0: 0}, q_bar=4)

    @pytest.mark.parametrize("weight", [2.5, float("nan"), float("inf")])
    def test_rejects_non_integer_weight(self, weight):
        # int64 storage would otherwise truncate 2.5 to 2 without a word.
        with pytest.raises(InputError, match="positive integer weight"):
            Dictionary.from_weights({0: weight}, q_bar=4)

    def test_rejects_bad_budget(self):
        with pytest.raises(InputError):
            Dictionary.from_weights({}, q_bar=0)


class TestDirectSample:
    def test_degenerate_distribution(self):
        draws = direct_sample([1.0, 0.0, 0.0], 5, np.random.default_rng(0))
        assert draws.tolist() == [0, 0, 0, 0, 0]

    def test_empty_sample(self):
        assert direct_sample([0.5, 0.5], 0, np.random.default_rng(0)).size == 0

    def test_uniform_frequencies(self):
        """Each of four equiprobable indices appears with frequency within
        four binomial standard errors of 1/4."""
        m = 100_000
        draws = direct_sample([0.25] * 4, m, np.random.default_rng(11))
        sigma = math.sqrt(0.25 * 0.75 / m)
        for idx in range(4):
            freq = np.mean(draws == idx)
            assert abs(freq - 0.25) < 4 * sigma

    def test_draw_order_is_iid(self):
        # two disjoint halves of one draw behave like independent samples
        draws = direct_sample([0.5, 0.5], 20_000, np.random.default_rng(3))
        first, second = draws[:10_000], draws[10_000:]
        assert abs(first.mean() - second.mean()) < 0.02

    def test_rejects_bad_mass(self):
        with pytest.raises(InputError):
            direct_sample([0.5, 0.4], 3, np.random.default_rng(0))
        with pytest.raises(InputError):
            direct_sample([-0.1, 1.1], 3, np.random.default_rng(0))


class TestShrinkExpand:
    def test_no_threshold_crossing_keeps_everything(self):
        d = Dictionary.from_weights({0: 2, 3: 1}, q_bar=10)
        p = np.array([0.5, 0.4, 0.9])
        out = shrink_expand(d, p, 7, RngHandle(seed=0), step=8)
        assert out.tolist() == [2, 1, 1]

    def test_rejects_nonpositive_probability(self):
        d = Dictionary.from_weights({0: 1}, q_bar=10)
        with pytest.raises(InputError):
            shrink_expand(d, np.array([0.0, 0.5]), 1, RngHandle(seed=0), step=1)

    def test_rejects_missing_probability(self):
        d = Dictionary.from_weights({0: 1}, q_bar=10)
        with pytest.raises(InputError):
            shrink_expand(d, np.array([0.5]), 1, RngHandle(seed=0), step=1)

    def test_rejects_duplicate_new_index(self):
        d = Dictionary.from_weights({0: 1}, q_bar=10)
        with pytest.raises(InputError):
            shrink_expand(d, np.array([0.5, 0.5]), 0, RngHandle(seed=0), step=1)

    def test_weight_cap(self):
        """Chains never push a weight past the first integer above the
        threshold."""
        q_bar = 20
        h = RngHandle(seed=99)
        for target in (2, 5, 10):
            p = chain_setup(target, q_bar)
            for trial in range(300):
                d = Dictionary.from_weights({0: 1}, q_bar=q_bar)
                out = shrink_expand(d, np.array([p, 1.0]), 1, h, step=trial)
                if out[0]:
                    assert out[0] == target
                    assert out[0] <= math.ceil(1.0 / (p * q_bar))

    def test_survival_probability_one_over_m(self):
        """A chain entered at weight 1 with target M survives with
        probability 1/M (checked at three binomial sigmas)."""
        q_bar = 20
        h = RngHandle(seed=5)
        trials = 30_000
        for target in (2, 5):
            p = chain_setup(target, q_bar)
            survived = 0
            for trial in range(trials):
                d = Dictionary.from_weights({0: 1}, q_bar=q_bar)
                out = shrink_expand(d, np.array([p, 1.0]), 1, h, step=trial)
                survived += out[0] != 0
            want = 1.0 / target
            sigma = math.sqrt(want * (1 - want) / trials)
            assert abs(survived / trials - want) < 3 * sigma

    def test_expand_mean_weight_is_unbiased(self):
        """The expand chain keeps E[b] equal to the entry weight 1."""
        q_bar = 20
        target = 6
        p = chain_setup(target, q_bar)
        h = RngHandle(seed=21)
        trials = 30_000
        total = 0
        for trial in range(trials):
            d = Dictionary.from_weights({}, q_bar=q_bar)
            out = shrink_expand(d, np.array([p]), 0, h, step=trial)
            total += out[0]
        mean = total / trials
        sigma = math.sqrt((target - 1.0) / trials)  # var of {0, target} at mean 1
        assert abs(mean - 1.0) < 3 * sigma

    def test_determinism_under_fixed_seed(self):
        d = Dictionary.from_weights({0: 1, 1: 2}, q_bar=3)
        p = np.array([0.05, 0.04, 0.5])
        a = shrink_expand(d, p, 2, RngHandle(seed=13), step=4)
        b = shrink_expand(d, p, 2, RngHandle(seed=13), step=4)
        assert np.array_equal(a, b)

    def test_tie_fires_chain(self):
        """Equality with the threshold counts as crossing it."""
        q_bar = 4
        d = Dictionary.from_weights({0: 1}, q_bar=q_bar)
        p = np.array([0.25, 1.0])  # 1 * 0.25 == 1/4 exactly
        fired = set()
        for trial in range(200):
            out = shrink_expand(d, p, 1, RngHandle(seed=trial), step=1)
            fired.add(int(out[0]))
        # the chain either dropped the index or pushed it past the threshold
        assert 1 not in fired
        assert 0 in fired or 2 in fired


def reference_shrink_expand(indices, counts, p, new_index, q_bar, handle, step):
    """Per-index loop over the retained columns, then the new one: each
    chain whose weight-probability product is at most 1/q_bar draws from
    its own (step, index) substream, growing b with probability b/(b+1)
    and dropping the column otherwise."""
    inv_budget = 1.0 / q_bar
    out = []
    for i, b, p_i in zip(list(indices) + [new_index], list(counts) + [1], p):
        if i == new_index and not p_i > 0:
            out.append(0)
            continue
        if b * p_i <= inv_budget:
            gen = handle.chain_stream(step, i)
            while b != 0 and b * p_i <= inv_budget:
                b = b + 1 if gen.random() < b / (b + 1.0) else 0
        out.append(b)
    return out


class TestShrinkExpandMultiColumn:
    def test_matches_per_index_reference(self):
        """Random dictionaries of 1-40 columns with weights 1-20, exact
        threshold ties and non-positive new-index probabilities: weights
        come back in dictionary order, then the new index, 0 when dropped."""
        rng = np.random.default_rng(606)
        ties = fired = dropped_new = 0
        for case in range(300):
            q = int(rng.integers(1, 41))
            q_bar = int(rng.integers(2, 300))
            inv_budget = 1.0 / q_bar
            indices = np.sort(rng.choice(5000, size=q, replace=False))
            counts = rng.integers(1, 21, size=q)
            # Power-of-two weights make b * (inv_budget / b) == inv_budget exact.
            tie = rng.random(q) < 0.25
            counts[tie] = 2 ** rng.integers(0, 5, size=int(tie.sum()))
            p = np.append(inv_budget / counts * rng.uniform(0.3, 2.5, size=q), 0.0)
            p[:q][tie] = inv_budget / counts[tie]
            kind = case % 4
            p[q] = (0.0, -0.1, inv_budget, rng.uniform(0.0, 3.0) * inv_budget)[kind]
            d = Dictionary.from_weights(dict(zip(indices.tolist(), counts.tolist())), q_bar=q_bar)
            new_index, step = 5000 + case, int(rng.integers(0, 10_000))
            handle = RngHandle(seed=int(rng.integers(0, 2**32)))
            out = shrink_expand(d, p, new_index, handle, step)
            want = reference_shrink_expand(
                indices.tolist(), counts.tolist(), p.tolist(), new_index, q_bar, handle, step
            )
            assert out.dtype == np.int64
            assert out.tolist() == want
            ties += int(np.sum(counts * p[:q] == inv_budget)) + (kind == 2)
            fired += int(np.sum(out[:q] != counts))
            dropped_new += kind < 2 and out[q] == 0
        assert ties > 100 and fired > 100 and dropped_new == 150


class TestSelectionWeights:
    def test_unit_weights(self):
        d = Dictionary.from_weights({0: 1, 4: 1}, q_bar=2)
        assert selection_weights(d.counts).tolist() == [1.0, 1.0]

    def test_square_root(self):
        d = Dictionary.from_weights({2: 4}, q_bar=2)
        assert selection_weights(d.counts).tolist() == [2.0]

    def test_matches_recomputation(self):
        d = Dictionary.from_weights({0: 3, 1: 7, 9: 2}, q_bar=5)
        got = selection_weights(d.counts)
        assert got.dtype == np.float64
        for pos, b in enumerate(d.counts.tolist()):
            assert got[pos] == math.sqrt(b)

    def test_checkpoint_weights_give_the_dictionarys_entries(self):
        """A checkpoint stores the counts as floats; verify's selection from
        them is the stream's, bit for bit."""
        counts = np.array([1, 2, 3, 7, 10**6, 2**40 + 1], dtype=np.int64)
        as_stored = np.asarray(tuple(counts.astype(np.float64).tolist()), dtype=np.float64)
        assert selection_weights(as_stored).tobytes() == selection_weights(counts).tobytes()
