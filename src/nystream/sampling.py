"""Randomized column selection: batch multinomial draws and the
shrink/expand weight chains that maintain the streaming dictionary.

Randomness is counter-based: every (purpose, step, index) triple maps to its
own Philox substream, so a run is bit-reproducible for a fixed seed no
matter how the dictionary evolves, and the Bernoulli trials of distinct
indices stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InputError, positive_int, probability_vector

_PURPOSE_CHAIN = 1
_PURPOSE_BATCH = 2
_MASK64 = (1 << 64) - 1
# Mask of the 28 low bits of a substream coordinate that go in the key.
_KEY_LIMIT = (1 << 28) - 1
_ONE = np.ones(1, dtype=np.int64)  # entry weight of a new index
_ZERO4 = (0, 0, 0, 0)  # output buffer of a fresh Philox


def _chain_pair() -> tuple[np.random.Philox, np.random.Generator]:
    bitgen = np.random.Philox(0)
    return bitgen, np.random.Generator(bitgen)


@dataclass(frozen=True)
class RngHandle:
    """Seeded source of independent, addressable random substreams."""

    seed: int
    # One Philox generator, re-keyed for every chain substream: creating a
    # Philox costs several times more than setting its state.
    _chain: tuple[np.random.Philox, np.random.Generator] = field(
        default_factory=_chain_pair, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # The seed is the Philox key's low word: a wider seed would alias one in range.
        if not 0 <= self.seed <= _MASK64:
            raise InputError(f"seed {self.seed} is outside [0, 2**64)")

    def _key(self, purpose: int, a: int, b: int) -> tuple[int, tuple[int, int, int, int]]:
        """Philox key and starting counter of substream ``(purpose, a, b)``.

        ``a + 1`` and ``b + 1`` each put their low 28 bits in the key and
        the rest in counter words 2 and 3, which are 0 below _KEY_LIMIT: a
        substream would draw 2**128 blocks before it carried into them, so
        no two substreams overlap.
        """
        if a < 0 or b < 0:
            raise InputError("substream coordinates out of range")
        a, b = a + 1, b + 1
        key = (
            self.seed
            | (purpose & 0xFF) << 64
            | (a & _KEY_LIMIT) << 72
            | (b & _KEY_LIMIT) << 100
        )
        return key, (0, 0, a >> 28, b >> 28)

    def chain_stream(self, step: int, index: int) -> np.random.Generator:
        """Substream feeding the Bernoulli chain of one index at one step.

        The draws are those of ``Generator(Philox(key=..., counter=...))``
        for the same key and counter, but the returned generator is the
        handle's one chain generator, re-keyed: it is valid until the
        handle's next ``chain_stream`` call.
        """
        key, counter = self._key(_PURPOSE_CHAIN, step, index)
        bitgen, gen = self._chain
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": (key & _MASK64, key >> 64)},
            "buffer": _ZERO4,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def batch_stream(self) -> np.random.Generator:
        """Substream for batch multinomial sampling."""
        key, counter = self._key(_PURPOSE_BATCH, 0, 0)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True)
class Dictionary:
    """Retained columns as position-aligned arrays: ascending int64
    ``indices`` and their positive int64 integer weights ``counts``.

    ``q_bar`` is the capacity parameter: chains fire whenever an index's
    weight-probability product drops to 1/q_bar or below.  The constructor
    takes the arrays as they are; :meth:`from_weights` validates and sorts.
    """

    indices: np.ndarray
    counts: np.ndarray
    q_bar: int

    @classmethod
    def from_weights(cls, weights: Mapping[int, int], q_bar: int) -> "Dictionary":
        positive_int("q_bar", q_bar)
        for i, b in weights.items():
            if not (b >= 1 and float(b).is_integer()):
                raise InputError(f"index {i} needs a positive integer weight, got {b}")
        indices = np.array(sorted(weights), dtype=np.int64)
        return cls(indices, np.array([weights[i] for i in indices.tolist()], dtype=np.int64), q_bar)

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    @property
    def weights(self) -> dict[int, int]:
        """Index -> weight, built on each access for readers that look
        weights up by column index; the streaming step reads the arrays."""
        return dict(zip(self.indices.tolist(), self.counts.tolist()))


def direct_sample(p, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``m`` i.i.d. indices (with replacement) from distribution ``p``."""
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    probability_vector("probabilities", p)
    if m < 0:
        raise InputError("sample size must be nonnegative")
    return rng.choice(p.shape[0], size=m, replace=True, p=p / p.sum()).astype(np.int64)


def _weight_chain(b: int, p: float, inv_budget: float, gen: np.random.Generator) -> int:
    # Success of Bernoulli(b/(b+1)) grows the weight; a single failure zeroes
    # it for good.  Threshold comparison is `<=` so ties fire the chain.
    while b != 0 and b * p <= inv_budget:
        if gen.random() < b / (b + 1.0):
            b += 1
        else:
            b = 0
    return b


def shrink_expand(
    dictionary: Dictionary,
    p_tilde: np.ndarray,
    new_index: int,
    rng: RngHandle,
    step: int,
) -> np.ndarray:
    """One dictionary update: rethreshold retained weights, admit the new index.

    ``p_tilde`` holds the already-clamped (monotone) probabilities of the
    retained columns in dictionary order, then that of ``new_index``, which
    must exceed every retained index.  Returns the weights in the same order,
    0 for a dropped column: retained columns whose chain fails are dropped
    and never resurface; the new index enters with weight 1 and runs the
    same chain against its own probability.
    """
    q = dictionary.size
    p = np.asarray(p_tilde, dtype=np.float64)
    if p.shape != (q + 1,):
        raise InputError(f"expected {q + 1} probabilities (dictionary plus new index), got shape {p.shape}")
    if q and new_index <= dictionary.indices[-1]:
        raise InputError(f"index {new_index} does not follow the dictionary's last index {dictionary.indices[-1]}")
    b = np.concatenate((dictionary.counts, _ONE))
    inv_budget = 1.0 / dictionary.q_bar
    # Chains run only where b * p <= 1/q_bar (any p <= 0 or NaN included);
    # substreams are keyed by (step, index), so skipping the rest shifts no draws.
    for pos in (~(b * p > inv_budget)).nonzero()[0].tolist():
        index = new_index if pos == q else int(dictionary.indices[pos])
        if p[pos] > 0:
            b[pos] = _weight_chain(int(b[pos]), float(p[pos]), inv_budget, rng.chain_stream(step, index))
        elif pos < q:
            raise InputError(f"retained index {index} has non-positive probability")
        else:
            # Only degenerate streams (zero kernel mass) get here; the chain
            # would a.s. end at weight 0, so the column is dropped outright.
            b[pos] = 0
    return b


def selection_weights(counts) -> np.ndarray:
    """The selection entries of a stream's integer weights (a dictionary's
    ``counts`` or a checkpoint's ``weights``): their square roots, in order."""
    return np.sqrt(counts)
