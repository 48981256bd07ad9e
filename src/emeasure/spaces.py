"""Finite models and union-closed hypothesis families over them.

A set of points is a plain int, bit i standing for point i: a hypothesis, a
generator, a row of a preorder. A family is deduplicated and kept in
canonical order (popcount, then numeric bitset value) so hypothesis ids are
stable across runs and cross-module references stay O(1); the empty
hypothesis is always id 0.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

MODEL_POINT_CAP = 24


class SpaceError(Exception):
    """Base class for model / hypothesis-family errors."""


class WidthMismatch(SpaceError):
    pass


class NotIntersectionClosed(SpaceError):
    pass


class NotAPreorder(SpaceError):
    pass


def _indices(bits: int) -> tuple[int, ...]:
    """The positions of a bitset's set bits, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


class Record:
    """Equality and hashing by the fields named in `_compared`, for the
    records that are compared by value. Records that do not derive from it
    compare by identity, and result records are `NamedTuple`s."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Model(Record):
    """Ordered collection of point labels standing in for the model."""

    __slots__ = ("points", "positions")
    _compared = ("points",)

    def __init__(self, points: tuple[str, ...]):
        if not points:
            raise SpaceError("a model needs at least one point")
        positions = {p: i for i, p in enumerate(points)}
        if len(positions) != len(points):
            raise SpaceError("model point labels must be unique")
        self.points = points
        # Each point label's index; the labels alone fix it.
        self.positions = positions

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise SpaceError(f"unknown point label {label!r}") from None

    def bits_of(self, labels: Iterable[str]) -> int:
        """The bitset of the labelled points."""
        bits = 0
        for label in labels:
            bits |= 1 << self.index(label)
        return bits

    def label(self, bits: int) -> str:
        """A bitset's point labels in index order joined by ",", and "{}"
        for the empty set."""
        return ",".join([self.points[i] for i in _indices(bits)]) if bits else "{}"


class HypothesisClass(Record):
    """Deduplicated, union-closed family of bitsets including the empty one.

    The constructor trusts that its bitsets are union-closed and fit the
    width; `union_closure` and `class_from_preorder` build families.

    Besides the members it keeps `generators`, bitsets of the family whose
    unions give every member: those `union_closure` found new, or else all
    the members. Building costs a sort of the members and one dict entry
    each; point-index tuples and the join-irreducibles are built on first
    use.
    """

    _compared = ("width", "members")

    def __init__(
        self, width: int, bitsets: Iterable[int], generators: Optional[tuple[int, ...]] = None
    ):
        self.width = width
        # A set that holds 0, as `union_closure`'s fresh one does, is sorted as it is.
        members = sorted(bitsets if type(bitsets) is set and 0 in bitsets else {0, *bitsets})
        members.sort(key=int.bit_count)  # stable: ties stay in value order
        self.members = tuple(members)
        self.generators = self.members if generators is None else generators
        self._index = dict(zip(members, range(len(members))))
        self._indices: list[Optional[tuple[int, ...]]] = [None] * len(members)
        self._irreducible: Optional[tuple[int, ...]] = None

    def irreducible_ids(self) -> tuple[int, ...]:
        """Ids of the join-irreducible members: the nonempty members that are
        not a union of smaller ones. Every member is a union of them."""
        if self._irreducible is None:
            self._irreducible = tuple(_worklist(self.members)[1])
        return self._irreducible

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, bits: int) -> bool:
        return bits in self._index

    def id_of(self, bits: int) -> int:
        try:
            return self._index[bits]
        except KeyError:
            raise SpaceError(f"point set {bits:#x} is not a member") from None

    def member(self, hid: int) -> int:
        return self.members[hid]

    def indices(self, hid: int) -> tuple[int, ...]:
        """The member's point indices in increasing order, computed once."""
        found = self._indices[hid]
        if found is None:
            found = self._indices[hid] = _indices(self.members[hid])
        return found

    empty_id = 0  # the empty member sorts first

    def nonempty_ids(self) -> tuple[int, ...]:
        return tuple(range(1, len(self.members)))


def _worklist(bitsets: Iterable[int]) -> tuple[set[int], list[int]]:
    """Union closure of the bitsets and the empty set, in one pass.

    A bitset not yet generated by the earlier ones joins every set generated
    so far. Returns the closure and the positions of those new bitsets.
    Walked in canonical order, a family's new bitsets are its
    join-irreducible members, since every proper subset of a member comes
    before it.
    """
    generated = {0}
    new: list[int] = []
    for pos, bits in enumerate(bitsets):
        if bits in generated:
            continue
        new.append(pos)
        generated.update([a | bits for a in generated])
    return generated, new


def union_closure(width: int, generators: Iterable[int]) -> HypothesisClass:
    """Smallest union-closed family containing the generators and the empty set.

    Each new generator joins every set generated before it, so the cost is
    O(members x generators); idempotent and monotone in the generator set.
    The family keeps the new generators as its `generators`.
    A negative generator, or one with a point at or past `width`, is refused.
    """
    gens = list(generators)
    for g in gens:
        if g < 0 or g >> width:
            raise SpaceError(f"bitset {g:#x} does not fit width {width}")
    generated, new = _worklist(gens)
    return HypothesisClass(width, generated, tuple([gens[pos] for pos in new]))


class Preorder(Record):
    """Reflexive transitive relation on model points: `rows[i]` is the
    bitset of the points j with i <= j."""

    __slots__ = _compared = ("rows",)

    def __init__(self, rows: tuple[int, ...]):
        self.rows = rows

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "Preorder":
        rows = [1 << i for i in range(size)]
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise NotAPreorder(f"pair ({i}, {j}) is outside points 0..{size - 1}")
            rows[i] |= 1 << j
        return cls(tuple(rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    def validate(self) -> None:
        """Refuse a row past the points, then the first point that is not
        below itself, then the first triple i <= j <= k without i <= k."""
        n, rows = self.size, self.rows
        if any(row < 0 or row >> n for row in rows):
            raise NotAPreorder("relation matrix is not square")
        for i in range(n):
            if not rows[i] >> i & 1:
                raise NotAPreorder(f"relation is not reflexive at {i}")
        for i, row in enumerate(rows):
            for j in _indices(row):
                missing = rows[j] & ~row
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    raise NotAPreorder(
                        f"relation is not transitive: {i}<={j}<={k} but not {i}<={k}"
                    )

    def transitive_closure(self) -> "Preorder":
        """Warshall's closure, one bitset row at a time."""
        rows = list(self.rows)
        for k in range(len(rows)):
            bit, row_k = 1 << k, rows[k]
            for i, row in enumerate(rows):
                if row & bit:
                    rows[i] = row | row_k
        return Preorder(tuple(rows))


class SpaceReport(NamedTuple):
    union_closed: bool
    intersection_closed: bool
    contains_full_model: bool
    least: Optional[dict[str, int]] = None


class Space(Record):
    """A model together with a union-closed hypothesis family over it."""

    _compared = ("model", "family")

    def __init__(self, model: Model, family: HypothesisClass):
        if family.width != model.size:
            raise WidthMismatch(
                f"family width {family.width} does not match model size {model.size}"
            )
        self.model = model
        self.family = family
        self._least_ids: Optional[tuple[Optional[int], ...]] = None
        self._labels: list[Optional[str]] = [None] * len(family)

    def label(self, hid: int) -> str:
        """The member's `Model.label`, built on first use."""
        label = self._labels[hid]
        if label is None:
            label = self._labels[hid] = self.model.label(self.family.members[hid])
        return label

    def printed_ids(self) -> dict[str, int]:
        """Each nonempty member's `label` to its id, every label built here.

        Members come in id order, which puts a member after the member it
        holds less its lowest point, so a member's label is its lowest
        point's label before that member's label. When that set is no
        member, its label is built the same way, once per call.
        """
        points, labels = self.model.points, self._labels
        index, members = self.family._index, self.family.members
        others: dict[int, str] = {}  # the labels of the sets that are no member

        def tail(bits: int) -> str:
            hid = index.get(bits)
            if hid is not None:
                return labels[hid]
            label = others.get(bits)
            if label is None:
                low = bits & -bits
                label = points[low.bit_length() - 1]
                if bits != low:
                    label += "," + tail(bits ^ low)
                others[bits] = label
            return label

        ids = {}
        for hid in range(1, len(members)):
            bits = members[hid]
            low = bits & -bits
            label = points[low.bit_length() - 1]
            if bits != low:
                rest = index.get(bits ^ low)
                label += "," + (labels[rest] if rest is not None else tail(bits ^ low))
            labels[hid] = label
            ids[label] = hid
        return ids

    # -- structure ----------------------------------------------------

    def _meets_closed(self) -> bool:
        # In a union-closed family this is closure under intersection: the
        # meet of two members is the union of its points' least members.
        top = self.family.members[-1]
        return all(hid is not None for i, hid in enumerate(self.least_ids()) if top >> i & 1)

    def _has_full_model(self) -> bool:
        return (1 << self.model.size) - 1 in self.family

    @property
    def intersection_closed(self) -> bool:
        """Closed under intersections with the full model present."""
        return self._has_full_model() and self._meets_closed()

    def least_ids(self) -> tuple[Optional[int], ...]:
        """Per point, the id of the smallest member containing it, or None
        where no member does or the members containing it have no least one.
        Computed once and kept.

        The point's candidate is the meet of the generators containing it:
        every member containing the point holds a generator that does, so
        this is the meet of all those members. One walk over each
        generator's points, so the cost is the sum of the generators' sizes,
        at most generators x points; n² on a preorder's rows.
        """
        if self._least_ids is None:
            n = self.model.size
            # A point no generator reaches keeps the full set, which then
            # is no member, since no member holds that point.
            meets = [(1 << n) - 1] * n
            for g in self.family.generators:
                rest = g
                while rest:
                    low = rest & -rest
                    i = low.bit_length() - 1
                    meets[i] &= g
                    rest ^= low
            self._least_ids = tuple(map(self.family._index.get, meets))
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


def class_from_preorder(model: Model, pre: Preorder) -> Space:
    """Union closure of the principal upper sets of a preorder, its rows.

    The result is intersection-closed and the least hypothesis of a point is
    its principal upper set.
    """
    if pre.size != model.size:
        raise WidthMismatch("preorder size does not match model size")
    pre.validate()
    return Space(model, union_closure(model.size, pre.rows))


def preorder_from_class(space: Space) -> Preorder:
    """Recover the preorder i <= j  iff  j lies in the least hypothesis of i."""
    space.require_intersection_closed()
    members = space.family.members
    return Preorder(tuple(members[space.least_id(i)] for i in range(space.model.size)))


def preimages(source_model: Model, mapping: Mapping[str, str], target: Space) -> tuple[int, ...]:
    """Bitset of the source points mapped into each target member, in target
    id order. A source point the map leaves out, or an image that is no
    target point, is refused."""
    images = []
    for p in source_model.points:
        if p not in mapping:
            raise SpaceError(f"source point {p!r} has no image")
        if mapping[p] not in target.model.positions:
            raise SpaceError(f"{mapping[p]!r} is not a point of the target model")
        images.append(target.model.positions[mapping[p]])
    return tuple(
        sum(1 << i for i, t in enumerate(images) if member >> t & 1)
        for member in target.family.members
    )
