"""Definition oracles for the benchmark's known-answer checks.

Nothing here imports `emeasure`. Values are plain `Fraction`s with
`math.inf` standing for infinite evidence, and each oracle follows the
mathematical definition rather than the package's algorithm:

- union closure by a worklist over generators,
- closure of an evidence table by thresholds (the largest attained value t
  such that the hypothesis lies in the union of all members with e >= t),
- anytime validity by backward induction (Snell envelope) instead of
  enumerating stopping rules,
- e-value step-up and self-consistent selection by their definitions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

INF = math.inf


class Mismatch(Exception):
    """A job's output disagrees with its oracle."""


def fmt(v) -> str:
    """The package's exact text form: 'inf', 'n' or 'p/q'."""
    if v == INF:
        return "inf"
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def parse(raw: str):
    return INF if raw == "inf" else Fraction(raw)


def mul(a, b):
    """Extended product with 0 * inf = 0."""
    if a == 0 or b == 0:
        return Fraction(0)
    if a == INF or b == INF:
        return INF
    return a * b


def div(a, b):
    """Extended quotient: c/inf = 0, 0/0 = 0, c/0 = inf."""
    if b == INF:
        return Fraction(0)
    if b == 0:
        return Fraction(0) if a == 0 else INF
    if a == INF:
        return INF
    return a / b


def expectation(masses, values):
    total = Fraction(0)
    for m, v in zip(masses, values):
        total = total + mul(m, v)
    return total


def union_closure(generators) -> set[int]:
    family = {0}
    frontier = [0]
    gens = set(generators)
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                u = a | g
                if u not in family:
                    family.add(u)
                    fresh.append(u)
        frontier = fresh
    return family


def canonical(family) -> list[int]:
    """Members in the package's documented id order: popcount, then value."""
    return sorted(family, key=lambda b: (b.bit_count(), b))


def bits_of(bits: int, width: int):
    return [i for i in range(width) if bits >> i & 1]


def intersection_closed(family: set[int], width: int) -> bool:
    members = sorted(family)
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a & b not in family:
                return False
    return (1 << width) - 1 in family


def least_bits(family, point: int):
    acc, hit = -1, False
    for m in family:
        if m >> point & 1:
            acc &= m
            hit = True
    return acc if hit and acc in family else None


def closure_by_threshold(values: dict[int, object]) -> dict[int, object]:
    """Smallest dominating measure of a table over a union-closed family."""
    order = sorted(values, key=lambda b: values[b], reverse=True)
    out = {}
    covered = 0
    levels = []  # (threshold, union of members with e >= threshold)
    i = 0
    while i < len(order):
        t = values[order[i]]
        while i < len(order) and values[order[i]] == t:
            covered |= order[i]
            i += 1
        levels.append((t, covered))
    for h in values:
        out[h] = next(t for t, u in levels if h & ~u == 0)
    return out


def snell_sup(shape, depth: int, value_at, mass) -> object:
    """Largest expected stopped value over stopping rules on a tree.

    `value_at(t, leaf)` is the process value at time t on a leaf and
    `mass(leaf)` its probability; masses are unnormalised, so zero-mass
    subtrees need no conditioning.
    """

    def leaves(node):
        return [node] if isinstance(node, str) else [x for c in node for x in leaves(c)]

    def walk(node, t):
        stop = Fraction(0)
        for leaf in leaves(node):
            stop = stop + mul(mass(leaf), value_at(t, leaf))
        if isinstance(node, str):
            return stop
        go = Fraction(0)
        for child in node:
            go = go + walk(child, t + 1)
        return max(stop, go)

    return walk(shape, depth)


def ebh(values: dict[int, object], ids, alpha: Fraction) -> tuple[int, ...]:
    ranked = sorted(ids, key=lambda g: (values[g], -g), reverse=True)
    big_k = len(ids)
    best = 0
    for k, g in enumerate(ranked, start=1):
        if values[g] >= Fraction(big_k) / (alpha * k):
            best = k
    return tuple(sorted(ranked[:best]))


def inflated(weights, members_of, selection, width):
    """Selection inflation of a point-weight measure on a power-set space."""
    denom = max(len(selection), 1)
    density = []
    for p in range(width):
        share = Fraction(sum(1 for g in selection if members_of[g] >> p & 1), denom)
        density.append(div(weights[p], share))
    return {
        g: min((density[p] for p in bits_of(members_of[g], width)), default=INF)
        for g in members_of
    }


def self_consistent(weights, members_of, ids, alpha: Fraction, width: int):
    """Largest selection equal to its own inflated rejection set.

    Returns (selection, inflated values) or ((), None) when none exists;
    sizes are tried in descending order, combinations in id order.
    """
    threshold = 1 / alpha
    ids = sorted(ids)
    for size in range(len(ids), -1, -1):
        for combo in itertools.combinations(ids, size):
            values = inflated(weights, members_of, combo, width)
            if tuple(g for g in ids if values[g] >= threshold) == combo:
                return combo, values
    return (), None


def rejection_table(rejected, members_of, width, alpha: Fraction):
    """Binary table of a G-level rejection on a power-set space."""
    covered = 0
    for g in rejected:
        covered |= members_of[g]
    level = 1 / alpha
    return {
        g: INF if m == 0 else (level if m & ~covered == 0 else Fraction(0))
        for g, m in members_of.items()
    }
