"""Rounding primitives used by the quantizers.

The paper quantizes with *stochastic rounding* (§5.2): a real value ``x``
is rounded down to ``floor(x)`` with probability ``ceil(x) - x`` and up
to ``ceil(x)`` otherwise, so that ``E[round(x)] = x``.  Deterministic
round-to-nearest is also provided for ablations and for the comparator
quantizers that use it (KVQuant-style nearest rounding).
"""

from __future__ import annotations

import numpy as np

__all__ = ["stochastic_round", "round_with_draws", "nearest_round", "make_rng"]


def make_rng(seed: int | None = 0) -> np.random.Generator:
    """Return a seeded numpy random generator.

    A single helper keeps seeding conventions uniform across the
    code base so that every experiment is reproducible bit-for-bit.
    """
    return np.random.default_rng(seed)


def stochastic_round(
    x: np.ndarray, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Round ``x`` stochastically and unbiasedly to integers.

    Each element is rounded to ``floor(x)`` with probability
    ``ceil(x) - x`` and to ``ceil(x)`` with probability ``x - floor(x)``,
    which makes the rounding unbiased: ``E[stochastic_round(x)] == x``.
    Values that are already integral are returned unchanged.

    Parameters
    ----------
    x:
        Array of real values.
    rng:
        Source of randomness; a fresh default generator is used when
        omitted (mainly convenient in interactive use — experiments
        should always pass an explicit generator).

    Returns
    -------
    np.ndarray
        Float array of integral values with the same shape as ``x``.
    """
    if rng is None:
        rng = make_rng()
    x = np.asarray(x, dtype=np.float64)
    return round_with_draws(x, rng.random(size=x.shape))


def round_with_draws(x: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Stochastic rounding of ``x`` given its uniform ``draws`` in [0, 1).

    Each element rounds up exactly when its draw falls below its
    fractional part.  Callers that must lay the draws out themselves
    (the one-pass partitioned quantizer) share the rule through here.
    """
    low = np.floor(x)
    return low + (draws < x - low)


def nearest_round(x: np.ndarray) -> np.ndarray:
    """Deterministic round-half-to-even (numpy's default rounding)."""
    return np.rint(np.asarray(x, dtype=np.float64))
