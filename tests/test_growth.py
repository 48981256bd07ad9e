"""Growth contracts: how an operation count scales with what drives a
layer's cost, fitted as a log-log slope over seeded instances of three sizes.

Counts are exact where timings would be flaky, so each contract states the
exponent its layer's docstring claims, with a slack, next to that claim.
"""

import math
from fractions import Fraction

import helpers
from emeasure import INF, XValue
from emeasure.xvalue import order_keys


def slope(sizes, counts):
    """Least-squares slope of log(count) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def test_order_key_bits_grow_about_linearly_in_coprime_denominators():
    """L0 `order_keys`: no key is wider than its value by more than twice the
    bit length of the widest denominator, so over N values with distinct
    prime denominators the keys hold about N log N bits in all. Keys scaled
    to the lcm of every denominator would hold about N² log N."""
    primes = helpers.first_primes(1024)
    sizes, bits = [64, 256, 1024], []
    for n in sizes:
        r = helpers.rng(n)
        values = [XValue(Fraction(r.randint(1, max(p - 1, 1)), p)) for p in primes[:n]]
        keys = order_keys(values + [INF])
        bits.append(sum(key.bit_length() for key in keys))
    assert slope(sizes, bits) <= 1.3, bits
