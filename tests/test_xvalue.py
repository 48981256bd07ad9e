"""The extended-arithmetic conventions, pinned one by one."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from emeasure import INF, ONE, XValue, ZERO, as_xvalue, inf_of, parse_xvalue, sup_of
from emeasure.xvalue import order_keys, rational, scale

fractions = st.fractions(min_value=0, max_value=100)


def test_empty_collection_conventions():
    assert inf_of([]) == INF
    assert sup_of([]) == ZERO


@pytest.mark.parametrize(
    "num, den, expected",
    [
        (XValue(3), ZERO, INF),  # c / 0 = inf
        (INF, ZERO, INF),  # inf / 0 = inf
        (ZERO, ZERO, ZERO),  # 0 / 0 = 0
        (XValue(3), INF, ZERO),  # c / inf = 0
        (INF, INF, ZERO),  # inf / inf = 0 (threshold-form limit)
        (ZERO, INF, ZERO),
        (XValue(6), XValue(4), XValue(Fraction(3, 2))),
        (INF, XValue(4), INF),
    ],
)
def test_division_conventions(num, den, expected):
    assert num / den == expected


def test_multiplication_conventions():
    assert ZERO * INF == ZERO
    assert INF * ZERO == ZERO
    assert INF * XValue(2) == INF
    assert INF * INF == INF
    assert XValue(Fraction(1, 2)) * XValue(4) == XValue(2)


def test_addition_with_infinity():
    assert INF + XValue(3) == INF
    assert XValue(3) + INF == INF
    assert XValue(1) + XValue(Fraction(1, 2)) == XValue(Fraction(3, 2))


def test_ordering_is_total_with_infinity_on_top():
    assert ZERO < ONE < INF
    assert INF <= INF
    assert not INF < INF
    assert max([XValue(3), INF, ONE]) == INF
    assert sorted([INF, ZERO, XValue(2)]) == [ZERO, XValue(2), INF]


def test_negative_and_float_rejected():
    with pytest.raises(ValueError):
        XValue(Fraction(-1, 2))
    with pytest.raises(TypeError):
        XValue(0.5)


def test_record_rendering():
    assert INF.record() == "inf"
    assert XValue(5).record() == "5"
    assert XValue(Fraction(195, 2)).record() == "195/2"
    assert parse_xvalue("inf") == INF
    assert parse_xvalue("195/2") == XValue(Fraction(195, 2))
    assert parse_xvalue(97.5) == XValue(Fraction(195, 2))


@given(fractions, fractions)
def test_addition_and_multiplication_commute(a, b):
    x, y = XValue(a), XValue(b)
    assert x + y == y + x
    assert x * y == y * x


@given(fractions, fractions, fractions)
def test_associativity(a, b, c):
    x, y, z = XValue(a), XValue(b), XValue(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)


@given(fractions, st.fractions(min_value=Fraction(1, 100), max_value=100))
def test_division_inverts_multiplication(a, b):
    x, y = XValue(a), XValue(b)
    assert (x / y) * y == x


@given(st.lists(fractions, max_size=6))
def test_inf_and_sup_agree_with_min_max(values):
    xs = [XValue(v) for v in values]
    if xs:
        assert inf_of(xs) == min(xs)
        assert sup_of(xs) == max(xs)
    else:
        assert inf_of(xs) == INF
        assert sup_of(xs) == ZERO


def test_as_xvalue_coercion():
    assert as_xvalue(3) == XValue(3)
    assert as_xvalue(Fraction(1, 3)) == XValue(Fraction(1, 3))
    assert as_xvalue(INF) is INF


operands = st.one_of(fractions, st.just(Fraction(0)), st.none())  # None stands for inf


def xv(frac):
    return INF if frac is None else XValue(frac)


def assert_stored_in_lowest_terms(value):
    """An XValue's pair is two ints: inf's (1, 0), or a numerator and a
    positive denominator with gcd 1."""
    num, den = value._num, value._den
    assert type(num) is int and type(den) is int
    assert (num, den) == (1, 0) or (num >= 0 and den > 0 and math.gcd(num, den) == 1)
    assert value.is_inf is (den == 0)


def expected_sum(a, b):
    return None if a is None or b is None else a + b


def expected_product(a, b):
    if a == 0 or b == 0:
        return Fraction(0)
    return None if a is None or b is None else a * b


def expected_quotient(a, b):
    if b is None:
        return Fraction(0)
    if b == 0:
        return Fraction(0) if a == 0 else None
    return None if a is None else a / b


@pytest.mark.parametrize(
    "op, expected",
    [
        (lambda x, y: x + y, expected_sum),
        (lambda x, y: x * y, expected_product),
        (lambda x, y: x / y, expected_quotient),
    ],
    ids=["add", "mul", "div"],
)
@given(a=operands, b=operands)
def test_arithmetic_results_are_checked_values(op, expected, a, b):
    result = op(xv(a), xv(b))
    assert type(result) is XValue
    assert_stored_in_lowest_terms(result)
    assert result == xv(expected(a, b))


def expectation(masses, values):
    """The package's expectation: the dot product of the two scaled tables."""
    return helpers.expectation(masses, values)


def xvalue_sum_expectation(masses, values):
    """The expectation as one checked XValue product and sum per term."""
    total = XValue(0)
    for m, v in zip(masses, values):
        total = total + XValue(m) * v
    return total


@given(st.lists(st.tuples(st.one_of(st.just(Fraction(0)), fractions), operands), max_size=6))
def test_expectation_matches_the_termwise_sum(terms):
    masses = [m for m, _ in terms]
    values = [xv(v) for _, v in terms]
    result = expectation(masses, values)
    assert result == xvalue_sum_expectation(masses, values)
    assert_stored_in_lowest_terms(result)


def test_expectation_of_a_pmf_matches_the_termwise_sum():
    r = helpers.rng(5)
    seen_zero_against_inf = 0
    for _ in range(300):
        sample = helpers.rand_sample(r, max_outcomes=4)
        pmf = helpers.rand_pmf(r, sample, full_support=False)
        values = [helpers.rand_xvalue(r) for _ in sample.outcomes]
        seen_zero_against_inf += any(m == 0 and v.is_inf for m, v in zip(helpers.pmf_mass(pmf), values))
        assert helpers.expectation(pmf, values) == xvalue_sum_expectation(helpers.pmf_mass(pmf), values)
    assert seen_zero_against_inf >= 10


def test_zero_mass_against_inf_contributes_nothing():
    assert expectation([Fraction(1), Fraction(0)], [XValue(2), INF]) == XValue(2)
    assert expectation([Fraction(1, 2), Fraction(1, 2)], [XValue(2), INF]) == INF
    assert expectation([], []) == ZERO


# -- the integer paths against Fraction's own arithmetic -------------------

HUGE = 10**4400  # past the 4300 digits str() will print

finite = st.one_of(
    st.just(Fraction(0)),
    fractions,
    st.fractions(min_value=0, max_denominator=10**6),
    st.builds(
        Fraction,
        st.integers(min_value=0, max_value=HUGE * 10),
        st.integers(min_value=1, max_value=HUGE),
    ),
)
extended = st.one_of(finite, st.none())  # None stands for inf
pairs = st.one_of(
    st.tuples(extended, extended),
    extended.map(lambda v: (v, v)),
    finite.map(lambda v: (v, v + Fraction(1, HUGE))),
)


def fresh(frac):
    """A new XValue holding a new Fraction, so equal values share no object."""
    return INF if frac is None else XValue(Fraction(frac.numerator, frac.denominator))


def rank(frac):
    """Oracle order of the extended half-line: inf above every fraction."""
    return (1, 0) if frac is None else (0, frac)


COMPARISONS = {
    "eq": lambda x, y: x == y,
    "ne": lambda x, y: x != y,
    "lt": lambda x, y: x < y,
    "le": lambda x, y: x <= y,
    "gt": lambda x, y: x > y,
    "ge": lambda x, y: x >= y,
}


@pytest.mark.parametrize("op", COMPARISONS.values(), ids=COMPARISONS.keys())
@given(pair=pairs)
def test_comparisons_agree_with_fraction_order(op, pair):
    a, b = pair
    expected = op(rank(a), rank(b))
    assert op(fresh(a), fresh(b)) is expected
    if b is not None:  # a plain Fraction on the right is coerced first
        assert op(fresh(a), Fraction(b.numerator, b.denominator)) is expected


@given(finite)
def test_a_value_hashes_as_the_equal_fraction_and_int(frac):
    assert hash(fresh(frac)) == hash(frac)
    if frac.denominator == 1:
        assert hash(fresh(frac)) == hash(frac.numerator)


@given(st.lists(extended, max_size=12).flatmap(lambda xs: st.permutations(xs + xs[:3])))
def test_order_keys_keep_order_and_equality(values):
    xs = [fresh(v) for v in values]
    keys = order_keys(xs)
    assert all(type(k) is int for k in keys)
    for (ka, a), (kb, b) in itertools.product(zip(keys, values), repeat=2):
        assert (ka < kb) == (rank(a) < rank(b))
        assert (ka == kb) == (rank(a) == rank(b))


def test_order_keys_put_inf_one_past_the_largest_finite_key():
    keys = order_keys([XValue(Fraction(1, 2)), INF, ZERO, XValue(3), INF])
    assert keys == [2, 13, 0, 12, 13]  # shifted by k = 2, as the widest denominator is 2
    assert order_keys([INF]) == [1] and order_keys([]) == []


def test_order_keys_over_pairwise_coprime_denominators():
    r = helpers.rng(17)
    fracs = [Fraction(r.randint(1, max(p - 1, 1)), p) for p in helpers.first_primes(1024)]
    xs = [XValue(f) for f in fracs] + [INF]
    keys = order_keys(xs)
    by_value = sorted(range(len(fracs)), key=fracs.__getitem__) + [len(fracs)]  # inf last
    assert all(keys[i] < keys[j] for i, j in zip(by_value, by_value[1:]))


def test_order_keys_order_and_tie_as_a_sort_does():
    """Seeded tables over pairwise coprime denominators and over a few
    shared ones, with 0, inf and repeated values: sorting by the keys and
    sorting by the values give one order, and keys tie exactly where the
    values do."""
    r = helpers.rng(53)
    primes = helpers.first_primes(200)
    for trial in range(300):
        if trial % 2:
            dens = r.sample(primes, r.randint(1, 40))
        else:
            dens = [r.choice([1, 2, 3, 4, 6, 12, 10**30]) for _ in range(r.randint(1, 40))]
        values = [XValue(Fraction(r.randint(0, 3 * d), d)) for d in dens]
        values += [ZERO, INF] * r.randint(0, 2) + r.sample(values, min(3, len(values)))
        r.shuffle(values)
        keys = order_keys(values)
        by_value = sorted(range(len(values)), key=values.__getitem__)
        assert sorted(range(len(values)), key=keys.__getitem__) == by_value
        for i, j in zip(by_value, by_value[1:]):
            assert (keys[i] == keys[j]) == (values[i] == values[j])


mixed_masses = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=0, max_value=1, max_denominator=97),
)


@given(
    st.lists(
        st.tuples(mixed_masses, st.fractions(min_value=0, max_denominator=10**6)), max_size=8
    )
)
def test_integer_expectation_equals_the_fraction_sum(terms):
    masses, values = [m for m, _ in terms], [XValue(v) for _, v in terms]
    result = expectation(masses, values)
    assert result == xvalue_sum_expectation(masses, values)
    exact = sum((Fraction(m) * v for m, v in terms), Fraction(0))
    assert_stored_in_lowest_terms(result)
    assert (result._num, result._den) == (exact.numerator, exact.denominator)


def _rand_term(r):
    """A (mass, value) term: masses as int or Fraction, zero or not; values
    0, inf, or with denominators up to 10**6 or past 4300 digits."""
    kind = r.randrange(4)
    if kind == 0:
        mass = r.randint(0, 2)
    elif kind == 1:
        mass = Fraction(0)
    else:
        mass = Fraction(r.randint(0, 9), r.randint(1, 10**6 if kind == 2 else 9))
    pick = r.random()
    if pick < 0.15:
        value = INF
    elif pick < 0.25:
        value = ZERO
    elif pick < 0.4:
        value = XValue(Fraction(r.randint(0, HUGE), r.randint(HUGE // 10, HUGE)))
    else:
        value = XValue(Fraction(r.randint(0, 10**7), r.randint(1, 10**6)))
    return mass, value


def test_dot_equals_the_termwise_expectation():
    r = helpers.rng(151)
    seen = {"zero mass against inf": 0, "positive mass against inf": 0,
            "int mass": 0, "past 4300 digits": 0}
    for _ in range(600):
        terms = [_rand_term(r) for _ in range(r.randint(0, 6))]
        masses, values = [m for m, _ in terms], [v for _, v in terms]
        result = helpers.expectation(masses, values)
        assert result == helpers.termwise_expectation(masses, values)
        assert_stored_in_lowest_terms(result)
        seen["zero mass against inf"] += any(not m and v.is_inf for m, v in terms)
        seen["positive mass against inf"] += any(m and v.is_inf for m, v in terms)
        seen["int mass"] += any(type(m) is int for m in masses)
        seen["past 4300 digits"] += any(
            not v.is_inf and helpers.as_fraction(v).denominator > 10**4300 for v in values
        )
    assert min(seen.values()) >= 30, seen


def test_scale_puts_every_table_over_one_denominator():
    den, nums, inf = scale([Fraction(1, 2), INF, XValue(Fraction(2, 3)), 1, ZERO])
    assert (den, nums, inf) == (6, (3, 0, 4, 6, 0), 0b10)
    assert scale([]) == (1, (), 0)


def test_parse_refuses_negative_infinity():
    assert parse_xvalue(float("inf")) == INF
    with pytest.raises(ValueError):
        parse_xvalue(float("-inf"))


def _fraction_or_error(read, raw):
    try:
        value = read(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)
    return type(value).__name__, value.numerator, value.denominator


def test_rational_reads_every_text_as_fraction_does():
    """The digit fast path gives Fraction's value, or its error, on seeded
    'p' and 'p/q' texts and on texts it leaves to Fraction."""
    r = helpers.rng(41)
    digits = lambda: "".join(r.choice("0123456789") for _ in range(r.randint(1, 6)))
    texts = [digits() for _ in range(200)] + [f"{digits()}/{digits()}" for _ in range(300)]
    texts += ["0/0", "3/0", "007/2", " 3", "3 ", "1_0", "+3", "-3/4", "3.5", "1e3", "3/4/5",
              "/4", "3/", "", "inf", "\u0663", "3/\u0664", 7, Fraction(3, 4), 2.5, [1]]
    for raw in texts:
        assert _fraction_or_error(rational, raw) == _fraction_or_error(Fraction, raw), raw


def _pair_or_error(read, raw):
    try:
        value = read(raw)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return type(exc).__name__
    assert_stored_in_lowest_terms(value)
    return value._num, value._den


def test_parse_reads_every_cell_as_fraction_reads_it():
    """The digit path reads seeded 'p' and 'p/q' texts, unreduced, with
    leading zeros, over a zero denominator or past 4300 digits, as
    ``XValue(Fraction(raw))`` reads them, or fails as it fails."""
    r = helpers.rng(43)
    digits = lambda: "0" * r.randint(0, 2) + str(r.randint(0, 10**r.randint(0, 8)))
    texts = [digits() for _ in range(200)] + [f"{digits()}/{digits()}" for _ in range(400)]
    texts += ["0/7", "6/4", "08", "007", "3/04", "3/0", "0/0", "000/000", "1" + "0" * 4400,
              "1" + "0" * 4400 + "/3", "3/1" + "0" * 4400, " 3/4", "3.5", "-3/4", "1e3"]
    for raw in texts:
        assert _pair_or_error(parse_xvalue, raw) == _pair_or_error(
            lambda text: XValue(Fraction(text)), raw
        ), raw
