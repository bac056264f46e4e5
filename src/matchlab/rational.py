"""Exact-rational helpers shared by every module.

All probabilities and ratios are `fractions.Fraction` (a walk matrix
keeps int rows over one denominator and gives its entries as Fractions).
Floats entering through an API or the CLI are read via their shortest
decimal repr, so a user-supplied 0.1 means exactly 1/10 and threshold
comparisons never drift on binary rounding.
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(x) -> Fraction:
    """Coerce ints, floats, strings like '1/10' or '0.1', and Fractions.

    An unparsable string or a zero denominator ('1/0') raises ValueError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")
