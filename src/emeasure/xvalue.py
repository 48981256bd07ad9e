"""Exact arithmetic on the extended half-line [0, inf].

Every evidence value in this package is an :class:`XValue`: a non-negative
rational or the distinguished infinity. All the extended-arithmetic
conventions of the calculus are centralized here and nowhere else:

    inf of an empty collection -> inf
    sup of an empty collection -> 0
    c / 0   -> inf   for c > 0 (including c = inf)
    c / inf -> 0     for every c (including c = inf)
    0 / 0   -> 0
    0 * inf -> 0

Floats are rejected on construction, and no value is ever turned into
one: rendering, ordering and ranking all work on the exact value.

A value is two ints, a numerator and a denominator in lowest terms with the
denominator positive; inf is the pair (1, 0). Arithmetic works on the pairs
and reduces each result with one gcd, and comparisons cross-multiply them,
which orders inf above every finite value without a branch. It is the
package's one number type: any other rational, a ``Fraction`` among them,
is read by its ``numerator`` and ``denominator``, and equal values compare
and hash alike. Every text is read by :func:`read_rational`, on the
grammar and to the value ``fractions.Fraction`` reads, except that an
exponent past 10000 is refused before its power of ten is built.
:func:`order_keys` keys each value by a fixed binary shift of its pair, so
that a table's values order as ints; :func:`packed_keys` packs rows of such
keys so that one subtraction compares two rows.

Expectations work on scaled tables: :func:`scale` turns a table into its
least common denominator, one integer numerator per position (0 where the
value is inf) and a bit mask of the infinite positions. The expectation of
two scaled tables is :func:`dot_at_most`: one integer sum of products, held
against a bound on the ints, then one gcd when the result is wrapped, and
zero mass against inf giving 0. Its one caller is the package's one
expectation walk, ``kernels._pair_report``. A distribution is scaled once,
when it is built, and a kernel's row of evidence against one hypothesis
once per kernel, the first time a check reads it. The anytime check walks
its tree on the same scaled tables: node masses are slice sums of a scaled
distribution, a hypothesis's step values on the nodes are scaled once, and
each (hypothesis, point) pair is one loop of int products, sums and maxima
whose root value :func:`ratio` wraps. All of it is exact.
"""

from __future__ import annotations

import math
import re
import sys
from math import gcd
from operator import mul
from typing import Iterable, Sequence, Union

# What a value is built from; a Fraction, or any other value with a
# numerator and a denominator, is read too.
Rationalish = Union[int, str, "XValue"]

_INF_TEXTS = ("inf", "Inf", "INF", "∞")
_MODULUS, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf


class XValue:
    """An exact value in [0, inf] with the calculus' conventions.

    `_num` and `_den` hold it in lowest terms, `_den` > 0, or (1, 0) for inf.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, value: Rationalish = 0):
        if isinstance(value, str):
            value = parse_xvalue(value)
        if isinstance(value, XValue):
            self._num, self._den = value._num, value._den
            return
        try:  # an int, a Fraction or any other rational; a float has no parts
            num, den = value.numerator, value.denominator
        except AttributeError:
            raise TypeError(f"not an int, a rational or a text: {value!r}") from None
        if num < 0:
            raise ValueError(f"evidence values are non-negative, got {value}")
        self._num, self._den = num, den

    # -- predicates ---------------------------------------------------

    @property
    def is_inf(self) -> bool:
        return not self._den

    @property
    def is_zero(self) -> bool:
        return not self._num

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: Rationalish) -> "XValue":
        if type(other) is not XValue:
            other = as_xvalue(other)
        b, d = self._den, other._den
        if not b or not d:
            return INF
        if b == d:
            return ratio(self._num + other._num, b)
        return ratio(self._num * d + other._num * b, b * d)

    __radd__ = __add__

    def __mul__(self, other: Rationalish) -> "XValue":
        if type(other) is not XValue:
            other = as_xvalue(other)
        a, c = self._num, other._num
        if not a or not c:
            return ZERO  # 0 * inf = 0
        b, d = self._den, other._den
        if not b or not d:
            return INF
        return ratio(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other: Rationalish) -> "XValue":
        if type(other) is not XValue:
            other = as_xvalue(other)
        c, d = other._num, other._den
        if not d:
            return ZERO  # c / inf = 0, also for c = inf
        if not c:
            return INF if self._num else ZERO  # 0/0 = 0, c/0 = inf
        if not self._den:
            return INF
        return ratio(self._num * d, self._den * c)

    def __rtruediv__(self, other: Rationalish) -> "XValue":
        return as_xvalue(other) / self

    # -- ordering -----------------------------------------------------

    # Both pairs are in lowest terms with inf as (1, 0), so two values are
    # equal when both parts are, and p/q <= r/s when p*s <= r*q: inf against
    # a finite value compares q <= 0, and inf against inf 0 <= 0.

    def __eq__(self, other: object) -> bool:
        if type(other) is XValue:
            return self._num == other._num and self._den == other._den
        try:  # any rational, its parts in lowest terms
            return self._num == other.numerator and self._den == other.denominator
        except AttributeError:
            return NotImplemented

    def __hash__(self) -> int:
        """Python's hash of the rational num/den, as ints and Fractions hash."""
        num, den = self._num, self._den
        if den == 1:
            return hash(num)
        if not den:
            return hash(None)
        if not den % _MODULUS:
            return _HASH_INF
        return hash(hash(num) * pow(den, -1, _MODULUS))

    def __le__(self, other: Rationalish) -> bool:
        if type(other) is not XValue:
            other = as_xvalue(other)
        return self._num * other._den <= other._num * self._den

    def __lt__(self, other: Rationalish) -> bool:
        if type(other) is not XValue:
            other = as_xvalue(other)
        return self._num * other._den < other._num * self._den

    def __ge__(self, other: Rationalish) -> bool:
        if type(other) is not XValue:
            other = as_xvalue(other)
        return other._num * self._den <= self._num * other._den

    def __gt__(self, other: Rationalish) -> bool:
        if type(other) is not XValue:
            other = as_xvalue(other)
        return other._num * self._den < self._num * other._den

    # -- rendering ----------------------------------------------------

    def __repr__(self) -> str:
        return f"XValue({self.record()!r})"

    def __str__(self) -> str:
        return self.record()

    def record(self) -> str:
        """Exact text form used by structured output: 'inf', 'n' or 'p/q'."""
        num, den = self._num, self._den
        if not den:
            return "inf"
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


_new = object.__new__


def _pair(num: int, den: int) -> XValue:
    """Wrap a pair already in lowest terms, skipping every check.

    Sums, products and quotients of values in [0, inf] stay there, and a
    read text is checked for its sign, so both come through :func:`ratio`;
    every other construction goes through ``XValue(...)``.
    """
    out = _new(XValue)
    out._num = num
    out._den = den
    return out


INF = _pair(1, 0)
ZERO = _pair(0, 1)
ONE = _pair(1, 1)


def as_xvalue(value: Rationalish) -> XValue:
    return value if isinstance(value, XValue) else XValue(value)


def ratio(num: int, den: int) -> XValue:
    """The exact value num/den of an int num >= 0 and an int den > 0,
    reduced once, here; the signs are the caller's to keep."""
    g = gcd(num, den)
    out = _new(XValue)
    if g == 1:
        out._num = num
        out._den = den
    else:
        out._num = num // g
        out._den = den // g
    return out


# A scaled table: (common denominator, numerators, mask of infinite positions).
Scaled = tuple[int, tuple[int, ...], int]


def scale(table: Sequence[Rationalish]) -> Scaled:
    """A table of masses or values over its least common denominator.

    Each position gets the integer numerator of its value at that
    denominator, and 0 with its bit set in the mask where the value is inf.
    Any other rational in the table, an int or a Fraction, is read by its
    parts, unchecked, as a table of masses checks its own signs.
    """
    try:
        nums = [v._num for v in table]
        dens = [v._den for v in table]
    except AttributeError:
        return scale([v if type(v) is XValue else _pair(v.numerator, v.denominator) for v in table])
    inf = 0
    if 0 in dens:
        for i, d in enumerate(dens):
            if not d:
                inf |= 1 << i
                nums[i], dens[i] = 0, 1
    common = math.lcm(*dens)
    if common == 1:
        return 1, tuple(nums), inf
    return common, tuple([n * (common // d) for n, d in zip(nums, dens)]), inf


def dot_at_most(a: Scaled, b: Scaled, bound: XValue = ONE) -> tuple[XValue, bool]:
    """Exact sum of the products of two scaled tables of one length,
    position by position, and whether it is at most `bound`.

    A product of 0 and inf is 0; a positive value against inf makes the sum
    inf. The finite products are summed as integers, and the verdict is
    decided on that sum over its denominator, num * bound_den <= bound_num
    * den, before the sum is reduced and wrapped; an infinite bound, (1, 0),
    holds every finite sum.
    """
    a_den, a_nums, a_inf = a
    b_den, b_nums, b_inf = b
    either = a_inf | b_inf
    while either:
        low = either & -either
        i = low.bit_length() - 1
        if (a_nums[i] or a_inf & low) and (b_nums[i] or b_inf & low):
            return INF, not bound._den
        either ^= low
    num, den = sum(map(mul, a_nums, b_nums)), a_den * b_den
    return ratio(num, den), num * bound._den <= bound._num * den


def order_keys(values: Sequence[XValue]) -> list[int]:
    """One int per value that orders as the values do, equal on equal values.

    A finite value n/d is keyed by floor(n * 2**k / d), where 2**k is at
    least the square of the widest denominator D. Two distinct values
    differ by at least 1/(d * d') >= 2**-k, so their keys differ in the
    same direction, and equal values, being equal pairs, get equal keys.
    No key is wider than its value by more than k bits; a table of ints is
    keyed by its numerators. Inf gets one more than the largest finite key.
    """
    dens = [v._den for v in values]
    k = 2 * (max(dens, default=1) - 1).bit_length()
    if k:
        keys = [(v._num << k) // d if d else -1 for v, d in zip(values, dens)]
    else:
        keys = [v._num if d else -1 for v, d in zip(values, dens)]
    if 0 not in dens:
        return keys
    top = max(max(keys), 0) + 1
    return [top if key < 0 else key for key in keys]


def packed_keys(columns: Sequence[Sequence[int]]) -> tuple[list[int], int]:
    """Per row, its non-negative int keys packed into one int, and the mask
    G of the guard bits; `columns` holds each field's keys over the rows.

    Each field takes w+1 bits, w the bit length of the largest key: the key
    in the low w bits and a guard bit on top. Then (packed[a] | G) -
    packed[b] keeps every guard exactly when each of a's keys is at least
    b's, since a field that would go negative borrows its own guard and no
    other: one subtraction and one mask compare two rows.
    """
    w = max(map(max, columns), default=0).bit_length()
    packed, guard = [0] * len(columns[0] if columns else ()), 0
    for x, keys in enumerate(columns):
        shift = x * (w + 1)
        guard |= 1 << (shift + w)
        packed = [row | key << shift for row, key in zip(packed, keys)]
    return packed, guard


def inf_of(values: Iterable[Rationalish]) -> XValue:
    """Infimum with the empty-collection convention inf {} = inf."""
    best = INF
    for v in values:
        v = as_xvalue(v)
        if v < best:
            best = v
    return best


def sup_of(values: Iterable[Rationalish]) -> XValue:
    """Supremum with the empty-collection convention sup {} = 0."""
    best = ZERO
    for v in values:
        v = as_xvalue(v)
        if v > best:
            best = v
    return best


# A rational as ``fractions.Fraction`` reads it: a sign, then digits ('_'
# between two; any Unicode decimal digit, as int() reads it) over a
# denominator, or with a decimal part and an exponent; spaces around.
_RATIONAL = re.compile(
    r"\s*([-+]?)(?=\.?\d)((?:\d+(?:_\d+)*)?)"
    r"(?:/(\d+(?:_\d+)*)|(?:\.(\d+(?:_\d+)*)?)?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*"
)
# 10**10000 costs about what int() pays for the 4300 digits it reads at
# most; the cost of a power of ten grows faster than its exponent.
_MAX_EXPONENT = 10_000


def read_rational(text: str) -> tuple[int, int]:
    """A rational text as a signed numerator and a positive denominator, not
    reduced, with the value ``fractions.Fraction`` reads from it; like it,
    refused with ValueError, or ZeroDivisionError for 'p/0'. An exponent
    past 10000 in magnitude is refused before its power of ten is built."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"not a rational number: {text!r}")
    sign, whole, den, frac, exp = m.groups()
    if den is not None:
        num, den = int(whole), int(den)
        if not den:
            raise ZeroDivisionError(f"zero denominator: {text!r}")
    else:
        num, den = int(whole or "0"), 1
        if frac:
            den = 10 ** len(frac.replace("_", ""))
            num = num * den + int(frac)
        if exp:
            exp = int(exp)
            if abs(exp) > _MAX_EXPONENT:
                raise ValueError(f"an exponent past {_MAX_EXPONENT}: {text!r}")
            num, den = (num * 10**exp, den) if exp >= 0 else (num, den * 10**-exp)
    return (-num, den) if sign == "-" else (num, den)


def parse_xvalue(raw: object) -> XValue:
    """Lenient parser for file input: ints, rational texts, 'inf', floats.

    A text is read by :func:`read_rational`, and a float by its decimal
    text (97.5 -> 195/2), never by its binary value; a bool is refused.
    """
    if isinstance(raw, (str, float)):
        text = str(raw)
        if text.strip() in _INF_TEXTS:
            return INF
        num, den = read_rational(text)
        if num < 0:
            raise ValueError(f"evidence values are non-negative, got -{ratio(-num, den)}")
        return ratio(num, den)
    if isinstance(raw, bool):
        raise ValueError(f"not an evidence value: {raw!r}")
    return as_xvalue(raw)
