"""Core domain types: records, record sets, partitions, constraints, cost ledger."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.cluster.hierarchy import DisjointSet


class ERError(Exception):
    """Base class for all errors raised by this package."""


class ConstraintConflict(ERError):
    """A merge or cannot-link would contradict knowledge already recorded."""


class EmptyRecord(ERError):
    pass


class UniverseMismatch(ERError):
    pass


@dataclass(frozen=True)
class Attribute:
    name: str
    value: str


@dataclass(frozen=True)
class Record:
    """One data instance: an opaque id plus an ordered tuple of named
    string attributes."""

    id: str
    attributes: tuple[Attribute, ...]

    def __post_init__(self):
        if len({a.name for a in self.attributes}) != len(self.attributes):
            raise ValueError(f"record {self.id}: duplicate attribute names")


@dataclass(frozen=True)
class ClusterNode:
    """A set of record ids believed to be one entity, with a representative member."""

    members: frozenset[str]
    representative: str
    origin_set: str | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("ClusterNode must be non-empty")
        if self.representative not in self.members:
            raise ValueError("representative must be a member")

    @classmethod
    def singleton(cls, record_id: str, origin_set: str | None = None) -> "ClusterNode":
        return cls(frozenset([record_id]), record_id, origin_set)


@dataclass(frozen=True)
class RecordSet:
    """An ordered group of cluster nodes submitted to one clustering call."""

    set_id: str
    members: tuple[ClusterNode, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for node in self.members:
            if seen & node.members:
                raise ValueError(f"record set {self.set_id}: overlapping members")
            seen |= node.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SetClustering:
    """A partition of one record set's members, given as tuples of positions."""

    source: str
    groups: tuple[tuple[int, ...], ...]
    flags: tuple[str, ...] = ()

    def validate(self, record_set: RecordSet) -> None:
        positions = [p for g in self.groups for p in g]
        if sorted(positions) != list(range(len(record_set))):
            raise ValueError(
                f"clustering of {self.source} is not an exact cover of the set"
            )

    def with_flag(self, flag: str) -> "SetClustering":
        return SetClustering(self.source, self.groups, self.flags + (flag,))


@dataclass
class Partition:
    """Global resolution result: disjoint clusters covering all records."""

    clusters: list[ClusterNode]

    def validate(self, record_ids) -> None:
        seen: set[str] = set()
        for node in self.clusters:
            if seen & node.members:
                raise ValueError("partition clusters are not disjoint")
            seen |= node.members
        if seen != set(record_ids):
            raise UniverseMismatch("partition does not cover the record id universe")

    def as_labels(self) -> dict[str, str]:
        """Map record id -> cluster label (the cluster's representative)."""
        return {
            rid: node.representative for node in self.clusters for rid in node.members
        }


@dataclass
class SetConfig:
    """Tunables for record-set construction, the guardrail and the final
    sweep. The sweep presumes clusters whose representatives are less than
    ``b_t`` similar to be distinct, as blocking does across blocks."""

    set_size: int = 9
    set_diversity: int = 4
    max_regen: int = 2
    seed: int = 0
    b_t: float = 0.5

    def __post_init__(self):
        if self.set_size < 2:
            raise ValueError("set_size must be at least 2")
        if not 1 <= self.set_diversity <= self.set_size:
            raise ValueError("set_diversity must be in [1, set_size]")
        if self.max_regen < 0:
            raise ValueError("max_regen must be >= 0")
        if not 0.0 < self.b_t < 1.0:
            raise ValueError("b_t must be in (0, 1)")


def estimate_tokens(text: str) -> int:
    """Rough token estimate when the provider reports no usage: ceil(chars / 4)."""
    return math.ceil(len(text) / 4)


@dataclass
class CostLedger:
    """Accumulates API calls, token counts, wall time and estimated monetary cost."""

    api_calls: int = 0
    tokens_in: int = 0
    tokens_out: int = 0
    wall_time: float = 0.0
    price_per_mtoken_in: float = 0.0
    price_per_mtoken_out: float = 0.0

    def record(self, tokens_in: int, tokens_out: int) -> None:
        if tokens_in < 0 or tokens_out < 0:
            raise ValueError("token counts must be non-negative")
        self.api_calls += 1
        self.tokens_in += tokens_in
        self.tokens_out += tokens_out

    def add_wall_time(self, seconds: float) -> None:
        self.wall_time += seconds

    @property
    def estimated_cost(self) -> float:
        return (
            self.tokens_in * self.price_per_mtoken_in
            + self.tokens_out * self.price_per_mtoken_out
        ) / 1e6

    def snapshot(self) -> dict:
        return {
            "api_calls": self.api_calls,
            "tokens_in": self.tokens_in,
            "tokens_out": self.tokens_out,
            "wall_time": self.wall_time,
            "estimated_cost": self.estimated_cost,
        }


class ConstraintStore:
    """Must-links (one scipy ``DisjointSet``) plus cannot-links over record ids.

    Merging is transitive; cannot-links are rewritten to surviving roots on
    merge, so anti-transitivity is preserved under any merge sequence. Which
    member is a root is the set's choice; callers use roots only as keys.
    """

    def __init__(self, record_ids=()):
        # a repeated id is one record, at its first position
        self._sets = DisjointSet(record_ids)
        # root -> set of roots it cannot link with (symmetric adjacency)
        self._cannot: dict[str, set[str]] = {}

    def root(self, record_id: str) -> str:
        """Id of the record at the root of this record's entity."""
        try:
            return self._sets[record_id]
        except KeyError:
            raise KeyError(f"unknown record id: {record_id!r}") from None

    def same_entity(self, a: str, b: str) -> bool:
        return self.root(a) == self.root(b)

    def cannot_link(self, a: str, b: str) -> bool:
        ra, rb = self.root(a), self.root(b)
        return rb in self._cannot.get(ra, ())

    def merge(self, a: str, b: str) -> None:
        ra, rb = self.root(a), self.root(b)
        if ra == rb:
            return
        if rb in self._cannot.get(ra, ()):
            raise ConstraintConflict(f"cannot merge {a!r} and {b!r}: known distinct")
        self._sets.merge(ra, rb)
        if self._sets[ra] != ra:
            ra, rb = rb, ra
        # rb's entity joined ra's; rewrite rb's cannot-links to ra
        for other in self._cannot.pop(rb, set()):
            self._cannot[other].discard(rb)
            self._cannot[other].add(ra)
            self._cannot.setdefault(ra, set()).add(other)

    def add_cannot_link(self, a: str, b: str) -> None:
        ra, rb = self.root(a), self.root(b)
        if ra == rb:
            raise ConstraintConflict(
                f"cannot-link between {a!r} and {b!r}: already same entity"
            )
        self._cannot.setdefault(ra, set()).add(rb)
        self._cannot.setdefault(rb, set()).add(ra)

    def has_cannot_links(self, record_ids) -> bool:
        """True if any given record's entity has a known cannot-link. Only
        tests and the bench tracer read this; ROADMAP item 1 drops it."""
        return any(self._cannot.get(self.root(r)) for r in record_ids)

    def components(self) -> dict[str, list[str]]:
        """Lowest member id -> sorted member ids, in first-record order."""
        return {min(members): sorted(members) for members in self._sets.subsets()}
