"""Stand-ins for the similarity index, so tests can pin exact similarities,
and a brute-force constraint store to check the real one against."""

from __future__ import annotations

import numpy as np

from erset.model import Attribute, ConstraintConflict, Record
from erset.similarity import SimilarityIndex


class TableIndex:
    """The ``sims`` of SimilarityIndex, read from a table keyed by sorted id
    pairs. A pair missing from the table reads ``default`` (a KeyError when
    there is none); an id with itself reads 1.0."""

    def __init__(self, table=None, default=None):
        self.table = table or {}
        self.default = default

    def _sim(self, a, b):
        if a == b:
            return 1.0
        key = (a, b) if a < b else (b, a)
        if self.default is None:
            return self.table[key]
        return self.table.get(key, self.default)

    def sims(self, ids, others=None):
        ids = list(ids)
        others = ids if others is None else list(others)
        values = [[self._sim(a, b) for b in others] for a in ids]
        return np.array(values, dtype=float).reshape(len(ids), len(others))


def embedding_index(embeddings) -> SimilarityIndex:
    """A cosine index over given embeddings, with a one-word record per id."""
    records = {rid: Record(rid, (Attribute("name", rid),)) for rid in embeddings}
    return SimilarityIndex(records, embeddings=embeddings)


class ReferenceStore:
    """ConstraintStore by brute force: each entity is a set of record ids and
    each cannot-link a pair of entities, rewritten on every merge. An
    entity's root is its highest member id, which is seldom the root that
    scipy's DisjointSet keeps (the larger entity's, on a tie the one added
    first)."""

    def __init__(self, record_ids=()):
        self._entity: dict[str, frozenset[str]] = {}
        for rid in record_ids:
            self._entity.setdefault(rid, frozenset([rid]))
        self._cannot: set[frozenset[frozenset[str]]] = set()

    def _of(self, record_id):
        try:
            return self._entity[record_id]
        except KeyError:
            raise KeyError(f"unknown record id: {record_id!r}") from None

    def root(self, record_id):
        return max(self._of(record_id))

    def same_entity(self, a, b):
        return self._of(a) == self._of(b)

    def cannot_link(self, a, b):
        return frozenset([self._of(a), self._of(b)]) in self._cannot

    def merge(self, a, b):
        ea, eb = self._of(a), self._of(b)
        if ea == eb:
            return
        if frozenset([ea, eb]) in self._cannot:
            raise ConstraintConflict(f"cannot merge {a!r} and {b!r}: known distinct")
        joined = ea | eb
        for rid in joined:
            self._entity[rid] = joined
        self._cannot = {
            frozenset(joined if e in (ea, eb) else e for e in pair)
            for pair in self._cannot
        }

    def add_cannot_link(self, a, b):
        ea, eb = self._of(a), self._of(b)
        if ea == eb:
            raise ConstraintConflict(
                f"cannot-link between {a!r} and {b!r}: already same entity"
            )
        self._cannot.add(frozenset([ea, eb]))

    def has_cannot_links(self, record_ids):
        return any(
            any(entity in pair for pair in self._cannot)
            for entity in map(self._of, record_ids)
        )

    def components(self):
        out: dict[str, list[str]] = {}
        for entity in self._entity.values():
            out.setdefault(min(entity), sorted(entity))
        return out
