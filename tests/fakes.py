"""Stand-ins for the similarity index, so tests can pin exact similarities."""

from __future__ import annotations

import numpy as np

from erset.model import Attribute, Record
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
