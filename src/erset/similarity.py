"""Tokenization, set similarity, hashed TF-IDF embeddings and vector similarity."""

from __future__ import annotations

import csv
import hashlib
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .model import EmptyRecord, ERError, Record

_WORD_RE = re.compile(r"\w+")


class ZeroVector(ERError):
    pass


class DimMismatch(ERError):
    pass


class MissingRecord(ERError):
    pass


class EmbeddingParseError(ERError):
    pass


@dataclass
class SimilarityConfig:
    measure: str = "cosine"  # "jaccard" or "cosine"
    embedder: str = "hashed_tfidf"  # or "external_file"
    dim: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.measure not in ("jaccard", "cosine"):
            raise ValueError(f"unknown measure: {self.measure!r}")
        if self.embedder not in ("hashed_tfidf", "external_file"):
            raise ValueError(f"unknown embedder: {self.embedder!r}")
        if self.dim < 1:
            raise ValueError("dim must be positive")


def serialize(record: Record) -> str:
    """Flatten a record to comparable text: "name: value" pairs in attribute order."""
    if not record.attributes:
        raise EmptyRecord(f"record {record.id} has no attributes")
    return " ".join(f"{a.name}: {a.value}" for a in record.attributes if a.value)


def tokenize(record: Record) -> list[str]:
    """Lower-cased words of the serialized record."""
    return _WORD_RE.findall(serialize(record).lower())


def jaccard(a, b) -> float:
    """Jaccard similarity on de-duplicated token sets; 1.0 when both are empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine of two vectors: their dot over the product of their norms."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimMismatch(f"dims differ: {u.shape} vs {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero vectors")
    return float(np.dot(u, v) / (nu * nv))


# The similarity kernel. np.vecdot runs the same BLAS dot per pair of rows as
# np.dot, and sqrt(vecdot(v, v)) is np.linalg.norm(v), so every value below is
# bitwise equal to cosine() of the same two vectors; a BLAS matrix product or
# a summed elementwise product would differ in the last bits.


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (of a single vector: its norm)."""
    return np.sqrt(np.vecdot(rows, rows))


def _over_norms(dots: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    if not (na.all() and nb.all()):
        raise ZeroVector("cosine undefined for zero vectors")
    return dots / (na * nb)


def cosine_blocks(
    a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray
) -> np.ndarray:
    """(..., m, k) cosines of each row of a (..., m, dim) with each row of b
    (..., k, dim), given their row_norms na (..., m) and nb (..., k). Leading
    axes batch independent blocks. Raises ZeroVector if any row is zero."""
    return _over_norms(
        np.vecdot(a[..., :, None, :], b[..., None, :, :]),
        na[..., :, None],
        nb[..., None, :],
    )


def hashed_tfidf(ids, token_lists, token_sets, dim: int, seed: int) -> np.ndarray:
    """(len(ids), dim) signed feature-hashing TF-IDF embeddings, L2-normalized,
    of the records ids, given each one's token list and set of distinct tokens.

    A token's df counts the token sets holding it. Each distinct token is
    hashed once with keyed blake2b, for its bucket and sign. One np.add.at
    adds every record's terms in first-appearance order, the order a
    per-record loop adds them in, so each cell sums bitwise alike. Raises for
    the first record, in order, that has no tokens or hashes to the zero
    vector.
    """
    df: Counter[str] = Counter()
    for tokens in token_sets:
        df.update(tokens)
    key = str(seed).encode("utf-8")
    terms: dict[str, tuple[int, float, float]] = {}
    rows, buckets, weights = array("q"), array("q"), array("d")
    for row, tokens in enumerate(token_lists):
        for token, count in Counter(tokens).items():
            term = terms.get(token)
            if term is None:
                digest = hashlib.blake2b(
                    token.encode("utf-8"), digest_size=8, key=key
                ).digest()
                h = int.from_bytes(digest, "little")
                idf = math.log(1.0 + len(token_sets) / df[token])
                term = terms[token] = (h % dim, 1.0 if (h >> 63) & 1 else -1.0, idf)
            bucket, sign, idf = term
            rows.append(row)
            buckets.append(bucket)
            weights.append(sign * (count * idf))
    matrix = np.zeros((len(token_lists), dim))
    cells = (np.frombuffer(rows, np.int64), np.frombuffer(buckets, np.int64))
    np.add.at(matrix, cells, np.frombuffer(weights))
    norms = row_norms(matrix)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        row = zero[0]
        if not token_lists[row]:
            raise EmptyRecord(f"record {ids[row]} produced no tokens")
        raise ZeroVector(f"record {ids[row]} hashed to the zero vector")
    matrix /= norms[:, None]
    return matrix


def load_embeddings(path, record_ids) -> dict[str, np.ndarray]:
    """Load a CSV of precomputed embeddings: header "id,d0,...,d{dim-1}"
    with at least one dimension, then one row per id holding exactly one
    value per header dimension. Every record id needs a row; an id given
    twice, or a row of zeros (it has no direction), is an error. A row's
    error names its file line."""
    out: dict[str, np.ndarray] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0] != "id":
            raise EmbeddingParseError(f"{path}: missing 'id,d0,...' header row")
        if len(header) < 2:
            raise EmbeddingParseError(
                f"{path} line {reader.line_num}: header has no dimension columns"
            )
        for row in reader:
            if not row:
                continue
            rid, where = row[0], f"{path} line {reader.line_num}"
            if rid in out:
                raise EmbeddingParseError(f"{where}: duplicate id {rid!r}")
            if len(row) != len(header):
                raise DimMismatch(
                    f"{where}: id {rid!r} has dim {len(row) - 1}, "
                    f"header has {len(header) - 1}"
                )
            try:
                values = np.array([float(x) for x in row[1:]])
            except ValueError as exc:
                raise EmbeddingParseError(f"{where}: bad row for id {rid!r}") from exc
            if not np.isfinite(values).all():
                raise EmbeddingParseError(f"{where}: non-finite value for id {rid!r}")
            if not values.any():
                raise EmbeddingParseError(f"{where}: zero vector for id {rid!r}")
            out[rid] = values
    missing = [rid for rid in record_ids if rid not in out]
    if missing:
        raise MissingRecord(f"{path}: no embedding for record id {missing[0]!r}")
    return out


def save_embeddings(path, embeddings: dict[str, np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        first = next(iter(embeddings.values()))
        writer.writerow(["id"] + [f"d{i}" for i in range(len(first))])
        for rid in sorted(embeddings):
            writer.writerow([rid] + [repr(float(x)) for x in embeddings[rid]])


class SimilarityIndex:
    """Per-record token sets and embeddings behind one similarity kernel."""

    def __init__(
        self,
        records: dict[str, Record],
        config: SimilarityConfig | None = None,
        embeddings: dict[str, np.ndarray] | None = None,
    ):
        self.config = config or SimilarityConfig()
        ids = list(records)
        tokens = [tokenize(r) for r in records.values()]
        self.token_sets = dict(zip(ids, map(set, tokens)))
        if embeddings is None:
            matrix = hashed_tfidf(
                ids, tokens, self.token_sets.values(), self.config.dim, self.config.seed
            )
            self.embeddings = dict(zip(ids, matrix))
            return
        # one embedding per record: an id without a record is dropped
        missing = [rid for rid in ids if rid not in embeddings]
        if missing:
            raise MissingRecord(f"no embedding for record id {missing[0]!r}")
        self.embeddings = {rid: np.asarray(embeddings[rid], dtype=float) for rid in ids}
        if len({v.shape for v in self.embeddings.values()}) > 1:
            raise DimMismatch("embeddings differ in dimension")

    def rows(self, ids) -> np.ndarray:
        """The embeddings of ids, stacked in order."""
        return np.array([self.embeddings[rid] for rid in ids])

    def sims(self, ids, others=None) -> np.ndarray:
        """(len(ids), len(others)) similarities of ids with others (with ids
        themselves by default) under the configured measure. Cosines raise
        ZeroVector if any pair holds a zero embedding."""
        ids = list(ids)
        others = ids if others is None else list(others)
        if not ids or not others:
            return np.zeros((len(ids), len(others)))
        if self.config.measure == "jaccard":
            sets = self.token_sets
            if others is not ids:
                rows = [[jaccard(sets[a], sets[b]) for b in others] for a in ids]
                return np.array(rows)
            # symmetric, and 1.0 on the diagonal: one jaccard() per pair
            out = np.ones((len(ids), len(ids)))
            for i, j in combinations(range(len(ids)), 2):
                out[i, j] = out[j, i] = jaccard(sets[ids[i]], sets[ids[j]])
            return out
        a = self.rows(ids)
        b = a if others is ids else self.rows(others)
        na = row_norms(a)
        nb = na if b is a else row_norms(b)
        return cosine_blocks(a, b, na, nb)

    def sim(self, a: str, b: str) -> float:
        return float(self.sims([a], [b])[0, 0])

    def representative(self, members) -> str:
        """The member whose embedding has the highest cosine with the
        members' mean embedding, ties to the lowest id; the lowest id when
        the mean is zero."""
        ids = sorted(members)
        if len(ids) == 1:
            return ids[0]
        rows = self.rows(ids)
        mean = rows.mean(axis=0)
        norm = row_norms(mean)
        if norm == 0.0:
            return ids[0]
        sims = _over_norms(np.vecdot(rows, mean), row_norms(rows), norm).tolist()
        return min(zip(ids, sims), key=lambda t: (1.0 - t[1], t[0]))[0]
