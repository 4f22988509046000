"""Exception taxonomy and numeric input rules shared by all modules.

The CLI maps the exceptions onto exit codes: invariant violations exit with
2, input/configuration/IO problems with 1.  Each numeric rule is one function
``rule(name, value)`` that raises :class:`InputError` naming the parameter and
the value; every rule rejects inf, NaN and a value it cannot compare.
"""

import math

import numpy as np


class InputError(ValueError):
    """A caller-supplied argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """A computation left its valid numerical regime (e.g. a denominator
    that the math guarantees positive came out non-positive)."""


class InvariantViolation(RuntimeError):
    """A runtime invariant that should hold by construction was broken."""


def _rule(what: str, holds):
    def check(name: str, value) -> None:
        try:
            ok = holds(value)
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise InputError(f"{name} must {what}, got {value}")

    return check


positive = _rule("be positive and finite", lambda v: 0.0 < v < math.inf)
non_negative = _rule("be non-negative and finite", lambda v: 0.0 <= v < math.inf)
# The range of the gaussian formula (kernels._values), which divides by 2.0 * bandwidth**2.
gaussian_bandwidth = _rule("make 2 * bandwidth**2 a positive finite float (about 1.6e-162 to 9.5e153)",
                           lambda v: 0.0 < 2.0 * v**2 < math.inf)
# A run's epsilon and delta lie in (0, 1); the approximation factors, the
# condition checks and the risk bound also take epsilon = 0 (exact scores).
open_unit = _rule("lie in (0, 1)", lambda v: 0.0 < v < 1.0)
half_open_unit = _rule("lie in [0, 1)", lambda v: 0.0 <= v < 1.0)
# A count; an integral float such as 3.0 passes.
positive_int = _rule("be a positive integer", lambda v: v >= 1 and v == int(v))


def probability_vector(name: str, p: np.ndarray) -> None:
    """Finite, non-negative entries that sum to 1 within 1e-6."""
    total = float(p.sum())
    if not (np.all(p >= 0) and abs(total - 1.0) <= 1e-6):
        low = float(p.min(initial=math.inf))
        raise InputError(f"{name} must be finite, non-negative and sum to 1, got minimum {low} and sum {total}")
