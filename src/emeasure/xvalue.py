"""Exact arithmetic on the extended half-line [0, inf].

Every evidence value in this package is an :class:`XValue`: a non-negative
rational (``fractions.Fraction``) or the distinguished infinity. All the
extended-arithmetic conventions of the calculus are centralized here and
nowhere else:

    inf of an empty collection -> inf
    sup of an empty collection -> 0
    c / 0   -> inf   for c > 0 (including c = inf)
    c / inf -> 0     for every c (including c = inf)
    0 / 0   -> 0
    0 * inf -> 0

Floats are rejected on construction, and no value is ever turned into
one: rendering, ordering and ranking all work on the exact value.

The hot paths work on plain ints, never through ``Fraction``'s operators:
comparisons cross-multiply numerators and denominators, and :func:`order_keys`
scales a table to one common denominator so that its values order as
integers. Expectations work on scaled tables: :func:`scale` turns a table
into its least common denominator, one integer numerator per position (0
where the value is inf) and a bit mask of the infinite positions. The
expectation of two scaled tables is their :func:`dot`: one integer sum of
products, one gcd when the result is wrapped, and zero mass against inf
giving 0. A distribution is scaled once, when it is built, and a variable
once for all the distributions it is held against. All of it is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

Rationalish = Union[int, str, Fraction, "XValue"]

_INF_MARK = object()
_INF_TEXTS = ("inf", "Inf", "INF", "∞")


class XValue:
    """An exact value in [0, inf] with the calculus' conventions."""

    __slots__ = ("_frac",)

    def __init__(self, value: Rationalish = 0):
        if isinstance(value, XValue):
            self._frac = value._frac
            return
        if value is _INF_MARK:
            self._frac = None
            return
        if isinstance(value, float):
            raise TypeError("floats are inexact; pass int, Fraction or 'p/q' string")
        if isinstance(value, str) and value.strip() in _INF_TEXTS:
            self._frac = None
            return
        self._frac = _nonnegative(Fraction(value))

    # -- predicates ---------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return self._frac is None

    @property
    def is_zero(self) -> bool:
        return self._frac == 0

    def as_fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinite value has no rational representation")
        return self._frac

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Rationalish) -> "XValue":
        other = _coerce(other)
        if self._frac is None or other._frac is None:
            return INF
        return _exact(self._frac + other._frac)

    __radd__ = __add__

    def __mul__(self, other: Rationalish) -> "XValue":
        other = _coerce(other)
        if self._frac == 0 or other._frac == 0:
            return ZERO  # 0 * inf = 0
        if self._frac is None or other._frac is None:
            return INF
        return _exact(self._frac * other._frac)

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "XValue":
        other = _coerce(other)
        if other._frac is None:
            return ZERO  # c / inf = 0, also for c = inf
        if other._frac == 0:
            return ZERO if self._frac == 0 else INF  # 0/0 = 0, c/0 = inf
        if self._frac is None:
            return INF
        return _exact(self._frac / other._frac)

    def __rtruediv__(self, other: Rationalish) -> "XValue":
        return _coerce(other) / self

    # -- ordering -----------------------------------------------------

    # A Fraction is kept in lowest terms with a positive denominator, so two
    # are equal when both parts are, and p/q <= r/s when p*s <= r*q.

    def __eq__(self, other: object) -> bool:
        if type(other) is not XValue:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = XValue(other)
        a, b = self._frac, other._frac
        if a is None or b is None:
            return a is b
        return a._numerator == b._numerator and a._denominator == b._denominator

    def __hash__(self) -> int:
        return hash(self._frac)

    def __le__(self, other: Rationalish) -> bool:
        b = _coerce(other)._frac
        if b is None:
            return True
        a = self._frac
        if a is None:
            return False
        return a._numerator * b._denominator <= b._numerator * a._denominator

    def __lt__(self, other: Rationalish) -> bool:
        b = _coerce(other)._frac
        a = self._frac
        if a is None:
            return False
        if b is None:
            return True
        return a._numerator * b._denominator < b._numerator * a._denominator

    def __ge__(self, other: Rationalish) -> bool:
        return _coerce(other) <= self

    def __gt__(self, other: Rationalish) -> bool:
        return _coerce(other) < self

    # -- rendering ----------------------------------------------------

    def __repr__(self) -> str:
        return f"XValue({self.record()!r})"

    def __str__(self) -> str:
        return self.record()

    def record(self) -> str:
        """Exact text form used by structured output: 'inf', 'n' or 'p/q'."""
        if self._frac is None:
            return "inf"
        num, den = self._frac.numerator, self._frac.denominator
        try:
            return str(num) if den == 1 else f"{num}/{den}"
        except ValueError:  # str() refuses ints past 4300 digits
            return decimal_text(num) if den == 1 else f"{decimal_text(num)}/{decimal_text(den)}"


_DIGIT_CHUNK = 10 ** 1000


def decimal_text(n: int) -> str:
    """Exact decimal digits of any int; str() refuses ints past 4300 digits."""
    if n < 0:
        return "-" + decimal_text(-n)
    chunks = []
    while n >= _DIGIT_CHUNK:
        n, low = divmod(n, _DIGIT_CHUNK)
        chunks.append(f"{low:01000d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _nonnegative(frac: Fraction) -> Fraction:
    if frac._numerator < 0:
        raise ValueError(f"evidence values are non-negative, got {frac}")
    return frac


def _exact(frac: Fraction) -> XValue:
    """Wrap a Fraction already known to be non-negative, skipping the checks.

    Sums, products and quotients of two values in [0, inf] stay there, so
    arithmetic results come through here, as do fractions whose sign was
    just checked; every other construction goes through ``XValue(...)``.
    """
    out = object.__new__(XValue)
    out._frac = frac
    return out


INF = XValue(_INF_MARK)
ZERO = XValue(0)
ONE = XValue(1)


def _coerce(value: Rationalish) -> XValue:
    return value if isinstance(value, XValue) else XValue(value)


def as_xvalue(value: Rationalish) -> XValue:
    return _coerce(value)


# A scaled table: (common denominator, numerators, mask of infinite positions).
Scaled = tuple[int, tuple[int, ...], int]


def scale(table: Iterable[Rationalish]) -> Scaled:
    """A table of masses or values over its least common denominator.

    Each position gets the integer numerator of its value at that
    denominator, and 0 with its bit set in the mask where the value is inf.
    """
    nums, dens, inf = [], [], 0
    for i, v in enumerate(table):
        f = v._frac if type(v) is XValue else v if type(v) is Fraction else Fraction(v)
        if f is None:
            inf |= 1 << i
            nums.append(0)
            dens.append(1)
        else:
            nums.append(f._numerator)
            dens.append(f._denominator)
    common = math.lcm(*dens)
    if common != 1:
        nums = [n * (common // d) for n, d in zip(nums, dens)]
    return common, tuple(nums), inf


def dot(a: Scaled, b: Scaled) -> XValue:
    """Exact sum of the products of two scaled tables of one length,
    position by position.

    A product of 0 and inf is 0; a positive value against inf makes the sum
    inf. The finite products are summed as integers and the sum is reduced
    once, when it is wrapped.
    """
    a_den, a_nums, a_inf = a
    b_den, b_nums, b_inf = b
    either = a_inf | b_inf
    while either:
        low = either & -either
        i = low.bit_length() - 1
        if (a_nums[i] or a_inf & low) and (b_nums[i] or b_inf & low):
            return INF
        either ^= low
    return _exact(_nonnegative(Fraction(sum(map(mul, a_nums, b_nums)), a_den * b_den)))


def order_keys(values: Sequence[XValue]) -> list[int]:
    """One int per value that orders as the values do, equal on equal values.

    Finite values are scaled to the least common denominator of the finite
    ones; inf gets one more than the largest finite key.
    """
    fracs = [v._frac for v in values]
    common = math.lcm(*{f._denominator for f in fracs if f is not None})
    keys = [None if f is None else f._numerator * (common // f._denominator) for f in fracs]
    top = max((k for k in keys if k is not None), default=0) + 1
    return [top if k is None else k for k in keys]


def inf_of(values: Iterable[Rationalish]) -> XValue:
    """Infimum with the empty-collection convention inf {} = inf."""
    best = INF
    for v in values:
        v = _coerce(v)
        if v < best:
            best = v
    return best


def sup_of(values: Iterable[Rationalish]) -> XValue:
    """Supremum with the empty-collection convention sup {} = 0."""
    best = ZERO
    for v in values:
        v = _coerce(v)
        if v > best:
            best = v
    return best


def parse_xvalue(raw: object) -> XValue:
    """Lenient parser for file input: ints, 'p/q' strings, 'inf', floats.

    Floats are read with decimal semantics (97.5 -> 195/2), never binary.
    """
    if isinstance(raw, XValue):
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float, Fraction, str)):
        raise ValueError(f"not an evidence value: {raw!r}")
    if isinstance(raw, float):
        if math.isinf(raw):
            if raw < 0:
                raise ValueError(f"evidence values are non-negative, got {raw}")
            return INF
        raw = str(raw)
    elif isinstance(raw, str) and raw.strip() in _INF_TEXTS:
        return INF
    return _exact(_nonnegative(Fraction(raw)))
