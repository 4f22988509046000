"""Randomized column selection: batch multinomial draws and the
shrink/expand weight chains that maintain the streaming dictionary.

Randomness is counter-based: every (purpose, step, index) triple maps to its
own Philox substream, so a run is bit-reproducible for a fixed seed no
matter how the dictionary evolves, and the Bernoulli trials of distinct
indices stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InputError

_PURPOSE_CHAIN = 1
_PURPOSE_BATCH = 2
_MASK64 = (1 << 64) - 1
_KEY_SPAN = 1 << 28  # step/index components must stay below this
_ONE = np.ones(1, dtype=np.int64)  # entry weight of a new index


@dataclass(frozen=True)
class RngHandle:
    """Seeded source of independent, addressable random substreams."""

    seed: int

    def _key(self, purpose: int, a: int, b: int) -> int:
        if not (0 <= a < _KEY_SPAN and 0 <= b < _KEY_SPAN):
            raise InputError("substream coordinates out of range")
        return (
            (self.seed & _MASK64)
            | (purpose & 0xFF) << 64
            | (a + 1) << 72
            | (b + 1) << 100
        )

    def chain_stream(self, step: int, index: int) -> np.random.Generator:
        """Substream feeding the Bernoulli chain of one index at one step."""
        return np.random.Generator(
            np.random.Philox(key=self._key(_PURPOSE_CHAIN, step, index))
        )

    def batch_stream(self) -> np.random.Generator:
        """Substream for batch multinomial sampling."""
        return np.random.Generator(np.random.Philox(key=self._key(_PURPOSE_BATCH, 0, 0)))


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
        if int(q_bar) < 1:
            raise InputError("q_bar must be a positive integer")
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
    if np.any(p < 0):
        raise InputError("probabilities must be nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-6:
        raise InputError(f"probabilities sum to {total!r}, expected 1")
    if m < 0:
        raise InputError("sample size must be nonnegative")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(p.shape[0], size=m, replace=True, p=p / total).astype(np.int64)


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


def selection_weights(dictionary: Dictionary) -> dict[int, float]:
    """Square roots of the integer weights: the selection entries."""
    return dict(zip(dictionary.indices.tolist(), np.sqrt(dictionary.counts).tolist()))
