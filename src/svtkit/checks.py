"""The input contract: every public constructor and function checks its
scalar parameters here, once per call, and raises ``ValueError`` naming the
field. Each rule takes keyword arguments, as in
``positive(eps1=eps1, eps2=eps2)``. A ``bool`` is never a number here;
numpy scalars are. Evaluation points (the arrays a cdf or a success curve
is read at) are not checked: NaN in gives NaN out.
"""

from __future__ import annotations

import math
import numbers
import sys
from functools import partial

import numpy as np

_BOOLS = (bool, np.bool_)


def _real(x) -> bool:
    """A real number that is not a bool, nor an integer or fraction beyond
    float range: one compares below inf, yet ``float`` of it raises
    OverflowError. The rules test ``float`` first, as the common case
    (numpy float64 included) needs no ABC lookup."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and not (isinstance(x, numbers.Rational)
                     and abs(x) > sys.float_info.max))


def _reject(name: str, x, rule: str):
    raise ValueError(f"{name} must be {rule}, got {x!r}")


def within(low: float, high: float, /, **values) -> None:
    """Each value is a real number in the open interval (low, high)."""
    for name, x in values.items():
        if not ((isinstance(x, float) or _real(x)) and low < x < high):
            _reject(name, x, f"a number in ({low}, {high})")


def nonnegative(**values) -> None:
    for name, x in values.items():
        if not ((isinstance(x, float) or _real(x)) and 0 <= x < math.inf):
            _reject(name, x, "a number in [0, inf)")


finite = partial(within, -math.inf, math.inf)
positive = partial(within, 0, math.inf)
probability = partial(within, 0, 1)


def count(least: int, /, **values) -> None:
    """Each value is an integer, numpy ints included, of at least ``least``."""
    for name, x in values.items():
        if not (type(x) is int or isinstance(x, numbers.Integral)
                and not isinstance(x, bool)) or x < least:
            _reject(name, x, f"an integer of at least {least}")


def flag(**values) -> None:
    for name, x in values.items():
        if not isinstance(x, _BOOLS):
            _reject(name, x, "a bool")


def sequence(**values) -> None:
    """Each value is a list or a tuple, as JSON gives them: a string or a
    number is not a sequence of values here."""
    for name, x in values.items():
        if not isinstance(x, (list, tuple)):
            _reject(name, x, "a list or tuple")


def instance(cls: type, /, **values) -> None:
    """Each value is a ``cls``, or array-like with elements of that type: a
    ``Variant`` rather than its token, real numbers rather than a string."""
    for name, x in values.items():
        if not (isinstance(x, cls)
                or issubclass(np.asarray(x).dtype.type, cls)):
            _reject(name, x, f"a {cls.__name__}")


def unique_finite(ids: np.ndarray, *values: np.ndarray) -> None:
    """Reject misaligned arrays, repeated ids and NaN or infinite values."""
    if any(v.size != ids.size for v in values):
        raise ValueError("ids and their values must align")
    if ids.size > 1:
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("ids must be unique")
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError("scores and thresholds must be finite")
