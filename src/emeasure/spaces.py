"""Finite models and union-closed hypothesis families over them.

A hypothesis is a subset of the model's points, stored as a bitset. A
family is deduplicated and kept in canonical order (popcount, then numeric
bitset value) so hypothesis ids are stable across runs and cross-module
references stay O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

MODEL_POINT_CAP = 24


class SpaceError(Exception):
    """Base class for model / hypothesis-family errors."""


class WidthMismatch(SpaceError):
    pass


class NotUnionClosed(SpaceError):
    pass


class NotIntersectionClosed(SpaceError):
    pass


class NotAPreorder(SpaceError):
    pass


@dataclass(frozen=True)
class Model:
    """Ordered collection of point labels standing in for the model."""

    points: tuple[str, ...]

    def __post_init__(self):
        if not self.points:
            raise SpaceError("a model needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise SpaceError("model point labels must be unique")

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.points.index(label)
        except ValueError:
            raise SpaceError(f"unknown point label {label!r}") from None


@dataclass(frozen=True, order=True)
class PointSet:
    """Subset of a model's points as a fixed-width bitset."""

    width: int
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.width:
            raise SpaceError(f"bitset {self.bits:#x} does not fit width {self.width}")

    @classmethod
    def empty(cls, width: int) -> "PointSet":
        return cls(width, 0)

    @classmethod
    def full(cls, width: int) -> "PointSet":
        return cls(width, (1 << width) - 1)

    @classmethod
    def of(cls, model: Model, labels: Iterable[str]) -> "PointSet":
        bits = 0
        for lab in labels:
            bits |= 1 << model.index(lab)
        return cls(model.size, bits)

    def __contains__(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def __or__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.width, self.bits | other.bits)

    def __and__(self, other: "PointSet") -> "PointSet":
        self._check(other)
        return PointSet(self.width, self.bits & other.bits)

    def _check(self, other: "PointSet"):
        if self.width != other.width:
            raise WidthMismatch(f"width {self.width} vs {other.width}")

    def issubset(self, other: "PointSet") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if self.bits >> i & 1)

    def labels(self, model: Model) -> tuple[str, ...]:
        return tuple(model.points[i] for i in self.indices())

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def sort_key(self) -> tuple[int, int]:
        return (self.popcount, self.bits)


def _canonical(width: int, bitsets: Iterable[int]) -> tuple[PointSet, ...]:
    uniq = sorted(set(bitsets) | {0})
    sets = [PointSet(width, b) for b in uniq]
    sets.sort(key=PointSet.sort_key)
    return tuple(sets)


class HypothesisClass:
    """Deduplicated, union-closed family of point sets including the empty one."""

    def __init__(self, width: int, members: Sequence[PointSet], *, check: bool = True):
        self.width = width
        self.members = _canonical(width, (m.bits for m in members))
        self._index = {m.bits: i for i, m in enumerate(self.members)}
        self._irreducible: Optional[tuple[int, ...]] = None
        self._joins: Optional[tuple[tuple[int, int, int], ...]] = None
        if check:
            _, irreducible, gap = _worklist((m.bits for m in self.members), self._index)
            if gap is not None:
                a, b = gap
                raise NotUnionClosed(
                    f"family is not union-closed: {a:#x} | {b:#x} is not a member"
                )
            self._irreducible = tuple(irreducible)

    @classmethod
    def from_bits(cls, width: int, bitsets: Iterable[int], *, check: bool = True) -> "HypothesisClass":
        return cls(width, [PointSet(width, b) for b in bitsets], check=check)

    def irreducible_ids(self) -> tuple[int, ...]:
        """Ids of the join-irreducible members: the nonempty members that are
        not a union of smaller ones. Every member is a union of them."""
        if self._irreducible is None:
            _, irreducible, _ = _worklist(m.bits for m in self.members)
            self._irreducible = tuple(irreducible)
        return self._irreducible

    def joins(self) -> tuple[tuple[int, int, int], ...]:
        """(member id, irreducible id, id of their union) for every member and
        every join-irreducible member not inside it.

        Every strict inclusion between members is a chain of such joins, and
        every member is the union of the irreducibles it contains.
        """
        if self._joins is None:
            irreducible = [(j, self.members[j].bits) for j in self.irreducible_ids()]
            self._joins = tuple(
                (a, j, self._index[m.bits | bits])
                for a, m in enumerate(self.members)
                for j, bits in irreducible
                if bits & ~m.bits
            )
        return self._joins

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        bits = item.bits if isinstance(item, PointSet) else item
        return bits in self._index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HypothesisClass)
            and self.width == other.width
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.width, tuple(m.bits for m in self.members)))

    def id_of(self, item) -> int:
        bits = item.bits if isinstance(item, PointSet) else item
        try:
            return self._index[bits]
        except KeyError:
            raise SpaceError(f"point set {bits:#x} is not a member") from None

    def member(self, hid: int) -> PointSet:
        return self.members[hid]

    @property
    def empty_id(self) -> int:
        return self._index[0]

    def nonempty_ids(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.members) if not m.is_empty)


def _worklist(
    bitsets: Iterable[int], members: Optional[Mapping[int, int]] = None
) -> tuple[set[int], list[int], Optional[tuple[int, int]]]:
    """Union closure of the bitsets and the empty set, in one pass.

    A bitset not yet generated by the earlier ones joins every set generated
    so far. Returns the closure, the positions of those new bitsets and, when
    ``members`` is given, the first join ``(generated, new)`` that falls
    outside it; the pass stops there. Walked in canonical order, a family's
    new bitsets are its join-irreducible members, since every proper subset
    of a member comes before it.
    """
    generated = {0}
    new: list[int] = []
    for pos, bits in enumerate(bitsets):
        if bits in generated:
            continue
        new.append(pos)
        for a in list(generated):
            joined = a | bits
            if members is not None and joined not in members:
                return generated, new, (a, bits)
            generated.add(joined)
    return generated, new, None


def union_closure(width: int, generators: Iterable[PointSet]) -> HypothesisClass:
    """Smallest union-closed family containing the generators and the empty set.

    Each new generator joins every set generated before it, so the cost is
    O(members x generators); idempotent and monotone in the generator set.
    """
    gens = list(generators)
    for g in gens:
        if g.width != width:
            raise WidthMismatch(f"generator width {g.width}, expected {width}")
    closure, _, _ = _worklist(g.bits for g in gens)
    return HypothesisClass.from_bits(width, closure, check=False)


@dataclass(frozen=True)
class Preorder:
    """Reflexive transitive relation on model points; entry (i, j) reads i <= j."""

    relation: tuple[tuple[bool, ...], ...]

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Preorder":
        mat = [[i == j for j in range(size)] for i in range(size)]
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise NotAPreorder(f"pair ({i}, {j}) is outside points 0..{size - 1}")
            mat[i][j] = True
        return cls(tuple(tuple(row) for row in mat))

    @classmethod
    def identity(cls, size: int) -> "Preorder":
        return cls.from_pairs(size, [])

    @property
    def size(self) -> int:
        return len(self.relation)

    def holds(self, i: int, j: int) -> bool:
        return self.relation[i][j]

    def validate(self) -> None:
        n = self.size
        if any(len(row) != n for row in self.relation):
            raise NotAPreorder("relation matrix is not square")
        for i in range(n):
            if not self.relation[i][i]:
                raise NotAPreorder(f"relation is not reflexive at {i}")
        for i in range(n):
            for j in range(n):
                if not self.relation[i][j]:
                    continue
                for k in range(n):
                    if self.relation[j][k] and not self.relation[i][k]:
                        raise NotAPreorder(
                            f"relation is not transitive: {i}<={j}<={k} but not {i}<={k}"
                        )

    def transitive_closure(self) -> "Preorder":
        n = self.size
        mat = [list(row) for row in self.relation]
        for k in range(n):
            for i in range(n):
                if mat[i][k]:
                    row_k = mat[k]
                    row_i = mat[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        return Preorder(tuple(tuple(row) for row in mat))


@dataclass(frozen=True)
class SpaceReport:
    union_closed: bool
    intersection_closed: bool
    contains_full_model: bool
    least: Optional[dict[str, int]] = None


class Space:
    """A model together with a union-closed hypothesis family over it."""

    def __init__(self, model: Model, family: HypothesisClass):
        if family.width != model.size:
            raise WidthMismatch(
                f"family width {family.width} does not match model size {model.size}"
            )
        self.model = model
        self.family = family
        self._least_ids: Optional[tuple[Optional[int], ...]] = None

    # -- structure ----------------------------------------------------

    def _meets_closed(self) -> bool:
        # In a union-closed family this is closure under intersection: the
        # meet of two members is the union of its points' least members.
        least = self.least_ids()
        return all(least[i] is not None for i in self.family.members[-1].indices())

    def _has_full_model(self) -> bool:
        return (1 << self.model.size) - 1 in self.family

    @property
    def intersection_closed(self) -> bool:
        """Closed under intersections with the full model present."""
        return self._has_full_model() and self._meets_closed()

    def least_ids(self) -> tuple[Optional[int], ...]:
        """Per point, the id of the smallest member containing it (if any)."""
        if self._least_ids is None:
            ids: list[Optional[int]] = []
            for i in range(self.model.size):
                meet = (1 << self.model.size) - 1
                found = False
                for m in self.family.members:
                    if m.bits >> i & 1:
                        meet &= m.bits
                        found = True
                if found and meet in self.family and (meet >> i & 1):
                    ids.append(self.family.id_of(meet))
                else:
                    ids.append(None)
            self._least_ids = tuple(ids)
        return self._least_ids

    def least_id(self, point: int | str) -> int:
        if isinstance(point, str):
            point = self.model.index(point)
        hid = self.least_ids()[point]
        if hid is None:
            raise NotIntersectionClosed(
                f"point {self.model.points[point]!r} has no least hypothesis"
            )
        return hid

    def analyze(self) -> SpaceReport:
        closed, full = self._meets_closed(), self._has_full_model()
        least = None
        if closed and full:
            least = {
                self.model.points[i]: hid
                for i, hid in enumerate(self.least_ids())
                if hid is not None
            }
        return SpaceReport(
            union_closed=True,
            intersection_closed=closed,
            contains_full_model=full,
            least=least,
        )

    def require_intersection_closed(self) -> None:
        if not self.intersection_closed:
            raise NotIntersectionClosed(
                "operation needs an intersection-closed hypothesis space"
            )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Space)
            and self.model == other.model
            and self.family == other.family
        )

    def __hash__(self) -> int:
        return hash((self.model, self.family))


def space_from_generators(model: Model, generators: Iterable[Iterable[str]]) -> Space:
    sets = [PointSet.of(model, g) for g in generators]
    return Space(model, union_closure(model.size, sets))


def class_from_preorder(model: Model, pre: Preorder) -> Space:
    """Union closure of the principal upper sets of a preorder.

    The result is intersection-closed and the least hypothesis of a point is
    its principal upper set.
    """
    if pre.size != model.size:
        raise WidthMismatch("preorder size does not match model size")
    pre.validate()
    uppers = []
    for i in range(model.size):
        bits = 0
        for j in range(model.size):
            if pre.holds(i, j):
                bits |= 1 << j
        uppers.append(PointSet(model.size, bits))
    return Space(model, union_closure(model.size, uppers))


def preorder_from_class(space: Space) -> Preorder:
    """Recover the preorder i <= j  iff  j lies in the least hypothesis of i."""
    space.require_intersection_closed()
    n = space.model.size
    rows = []
    for i in range(n):
        least = space.family.member(space.least_id(i))
        rows.append(tuple(j in least for j in range(n)))
    return Preorder(tuple(rows))


def preimages(
    source_model: Model,
    mapping: Mapping[str, str] | Callable[[str], str],
    target: Space,
) -> tuple[int, ...]:
    """Bitset of the source points mapped into each target member, in target id order."""
    get = mapping.__getitem__ if isinstance(mapping, Mapping) else mapping
    target_idx = {lab: i for i, lab in enumerate(target.model.points)}
    images = []
    for p in source_model.points:
        img = get(p)
        if img not in target_idx:
            raise SpaceError(f"{img!r} is not a point of the target model")
        images.append(target_idx[img])
    return tuple(
        sum(1 << i for i, t in enumerate(images) if t in member)
        for member in target.family.members
    )


def preimage_class(
    source_model: Model,
    mapping: Mapping[str, str] | Callable[[str], str],
    target: Space,
) -> HypothesisClass:
    """Family of preimages of the target members; union-closed for free."""
    return HypothesisClass.from_bits(
        source_model.size, preimages(source_model, mapping, target), check=False
    )
