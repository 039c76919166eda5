"""Tokenization, set similarity, hashed TF-IDF embeddings and vector similarity."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_array

from .dataio import atomic_write
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
    """Lower-cased words of the serialized record: the per-record reference
    tokenize_records computes once per distinct value."""
    return _WORD_RE.findall(serialize(record).lower())


def tokenize_records(records) -> list[list[str]]:
    """tokenize() of each record, with each distinct (name, value) pair's
    words found once: the words of "name: value", lower-cased, joined in
    attribute order. The serialized parts are joined by spaces, and neither
    a \\w+ word nor lower()'s final-sigma context crosses a space, so the
    joined words are the serialized record's."""
    words: dict[tuple[str, str], list[str]] = {}
    out = []
    for record in records:
        if not record.attributes:
            raise EmptyRecord(f"record {record.id} has no attributes")
        tokens = []
        for a in record.attributes:
            if a.value:
                key = (a.name, a.value)
                part = words.get(key)
                if part is None:
                    part = words[key] = _WORD_RE.findall(f"{a.name}: {a.value}".lower())
                tokens += part
        out.append(tokens)
    return out


def jaccard(a, b) -> float:
    """The per-pair reference: Jaccard of de-duplicated tokens, 1.0 if both empty."""
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def token_incidence(sets) -> tuple[csr_array, np.ndarray]:
    """The 0/1 (len(sets), tokens) matrix marking each set's distinct tokens,
    and each set's size. Its product with its transpose counts the c tokens two
    sets share exactly, so c / (|a| + |b| - c) equals their jaccard() bitwise."""
    vocab: dict[str, int] = {}
    cols = [vocab.setdefault(t, len(vocab)) for s in sets for t in s]
    sizes = np.array([len(s) for s in sets], dtype=np.intp)
    shape = (len(sets), len(vocab))
    incidence = csr_array((np.ones(len(cols)), cols, np.r_[0, np.cumsum(sizes)]), shape)
    return incidence, sizes


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


# Values one kernel call may hold, the one budget _per_call sizes every read
# by: a stack of id groups (SimilarityIndex's group reads), a row stripe
# against all ids (_pairs) or LSH buckets' rows and cosine blocks
# (_bucket_pairs). So peak memory grows with neither the input nor its groups.
_VERIFY_BUDGET = 1 << 19


def _per_call(cost, held=0):
    """How many items of cost values each one kernel call takes, at least
    one, when the call also holds held values whatever its items."""
    return max(1, (_VERIFY_BUDGET - held) // max(1, cost))


def _stacks(groups, cost):
    """For each size of the groups, in order of first appearance, the
    positions of the groups of that size, in runs of _per_call(cost(size))
    groups, cost(size) values a group."""
    at: dict[int, list[int]] = {}
    for k, group in enumerate(groups):
        at.setdefault(len(group), []).append(k)
    for size, positions in at.items():
        step = _per_call(cost(size))
        for lo in range(0, len(positions), step):
            yield size, positions[lo : lo + step]


def _pairs(n, read, floor):
    """Per row stripe of _per_call(n) rows, read(lo, hi) being rows lo..hi-1
    against all n ids: the stripe's pairs i != j at or above floor, as index
    arrays i, j and their values, by row, then column."""
    stripe = _per_call(n)
    for lo in range(0, n, stripe):
        values = read(lo, min(lo + stripe, n))
        i, j = np.nonzero(values >= floor)
        keep = lo + i != j
        i, j = i[keep], j[keep]
        yield lo + i, j, values[i, j]


def _bucket_pairs(matrix, buckets, floor):
    """Index arrays ia, ib of the pairs of matrix rows ia[k] < ib[k] that
    share one of the buckets, each a 1-d array of ascending row numbers, and
    whose cosine is at or above floor. A kernel call reads a stack of
    equal-size buckets (_stacks), or a bucket too large for one call in row
    stripes. Raises ZeroVector if a bucket holds a zero row."""
    norms = row_norms(matrix)
    dim = matrix.shape[1]
    ia, ib = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    # a call holds its gathered rows as well as its cosine blocks
    for size, at in _stacks(buckets, lambda size: size * (dim + size)):
        stack = np.array([buckets[k] for k in at])
        g, ng = matrix[stack], norms[stack]
        # a lone bucket's stripe holds its gathered rows and size values a
        # row; a bucket that fits one call is one stripe
        stripe = min(size, _per_call(size, size * dim))
        # rows lo.. of the stripe against columns lo..: the stripe's part of
        # the upper triangle, whose column index runs from lo as well
        for lo in range(0, size, stripe):
            hi = lo + stripe
            block = cosine_blocks(g[:, lo:hi], g[:, lo:], ng[:, lo:hi], ng[:, lo:])
            k, i, j = np.nonzero(np.triu(block >= floor, 1))
            ia.append(stack[k, lo + i])
            ib.append(stack[k, lo + j])
    return np.concatenate(ia), np.concatenate(ib)


def hashed_tfidf(ids, token_lists, dim: int, seed: int) -> np.ndarray:
    """(len(ids), dim) signed feature-hashing TF-IDF embeddings, L2-normalized,
    of the records ids, given each one's token list.

    Array passes over every occurrence's vocabulary code: one np.unique over
    (row, code) gives each record's terms, the tokens of its set with their
    counts, in first-appearance order; a token's df, the sets holding it, is
    one np.bincount over the terms. Each distinct token is hashed once with
    keyed blake2b, for its bucket and sign, and given its idf by math.log
    (np.log may differ in the last bit). One np.add.at adds every record's
    terms in first-appearance order, the order a per-record loop adds them
    in, so each cell sums bitwise alike. Raises for the first record, in
    order, that has no tokens or hashes to the zero vector.
    """
    flat = list(chain.from_iterable(token_lists))
    vocab = {token: code for code, token in enumerate(dict.fromkeys(flat))}
    size = len(vocab)
    codes = np.fromiter(map(vocab.__getitem__, flat), np.int64, len(flat))
    lengths = np.fromiter(map(len, token_lists), np.int64, len(token_lists))
    rows = np.repeat(np.arange(len(token_lists)), lengths)
    _, first, counts = np.unique(rows * size + codes, return_index=True, return_counts=True)
    order = np.argsort(first)
    # one entry per term, at its first occurrence
    first, counts = first[order], counts[order]
    rows, codes = rows[first], codes[first]
    # a record's terms are its token set, so a token's df counts its terms
    df = np.bincount(codes, minlength=size).tolist()
    n = len(token_lists)
    idfs = np.array([math.log(1.0 + n / d) for d in df])
    key = str(seed).encode("utf-8")
    digests = (
        hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key).digest()
        for token in vocab
    )
    # each digest read as int.from_bytes(digest, "little")
    hashes = np.frombuffer(b"".join(digests), "<u8")
    buckets = (hashes % dim).astype(np.intp)
    signs = np.where(hashes >> 63, 1.0, -1.0)
    weights = signs[codes] * (counts * idfs[codes])
    matrix = np.zeros((len(token_lists), dim))
    np.add.at(matrix, (rows, buckets[codes]), weights)
    norms = row_norms(matrix)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        row = zero[0]
        if not token_lists[row]:
            raise EmptyRecord(f"record {ids[row]} produced no tokens")
        raise ZeroVector(f"record {ids[row]} hashed to the zero vector")
    matrix /= norms[:, None]
    return matrix


# Characters that leave a file to the per-row reader: a quote (csv quoting),
# NUL (which csv rejects on some Python versions) and \x1c-\x1f, which
# np.loadtxt strips round a number as whitespace but float() rejects.
_ROW_READER_ONLY = '"\0\x1c\x1d\x1e\x1f'


def load_embeddings(path, record_ids) -> dict[str, np.ndarray]:
    """Load a CSV of precomputed embeddings: header "id,d0,...,d{dim-1}"
    with at least one dimension, then one row per id holding exactly one
    value per header dimension, in the syntax float() accepts. Every record
    id needs a row; an id given twice, a non-finite value, or a row of zeros
    (it has no direction), is an error.

    The value columns of the whole file are read by one C-level parse
    (np.loadtxt), fed line by line as the file streams, into one (n, dim)
    float64 matrix, and each id maps to its row, in file order. The checks
    then run over the whole matrix. A file that parse may not read as csv
    and float() would (a quoted field, say, or a value such as "1_0" that
    only float() accepts), or that fails a check, is read again by the
    per-row reader, which loads it as float() does or raises the error
    naming its file line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        dim = _header_dim(path, reader)
        try:
            out = _bulk_rows(fh, dim)
        except ValueError:  # a line left to the per-row reader, bad text or value
            out = None
    if out is None or not all(rid in out for rid in record_ids):
        return _load_rows(path, record_ids)
    return out


def _header_dim(path, reader) -> int:
    """The dimension of an embedding file's "id,d0,..." header row."""
    header = next(reader, None)
    if header is None or not header or header[0] != "id":
        raise EmbeddingParseError(f"{path}: missing 'id,d0,...' header row")
    if len(header) < 2:
        raise EmbeddingParseError(
            f"{path} line {reader.line_num}: header has no dimension columns"
        )
    return len(header) - 1


def _bulk_rows(fh, dim: int) -> dict[str, np.ndarray] | None:
    """The rows left in fh, by one np.loadtxt parse of their value columns
    as fh streams them; None if a check fails. Raises ValueError for a line
    only the per-row reader may read."""
    ids: list[str] = []
    limit = csv.field_size_limit()

    def lines():
        # fh opened with newline="" ends lines where csv ends rows, and
        # without quotes a row is its line split at commas
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            if (
                len(line) > limit
                or line.count(",") != dim
                or any(c in line for c in _ROW_READER_ONLY)
            ):
                raise ValueError("a line for the per-row reader")
            ids.append(line[: line.index(",")])
            yield line

    rows = lines()
    first = next(rows, None)
    if first is None:  # np.loadtxt warns on no data
        return {}
    matrix = np.loadtxt(
        chain([first], rows),
        delimiter=",",
        comments=None,
        usecols=range(1, dim + 1),
        ndmin=2,
    )
    if (
        len(set(ids)) < len(ids)
        or not np.isfinite(matrix).all()
        or not matrix.any(axis=1).all()
    ):
        return None
    return dict(zip(ids, matrix, strict=True))


def _load_rows(path, record_ids) -> dict[str, np.ndarray]:
    """load_embeddings one row at a time, with float() per value: the reader
    that names the file line of the first error."""
    out: dict[str, np.ndarray] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        dim = _header_dim(path, reader)
        for row in reader:
            if not row:
                continue
            rid, where = row[0], f"{path} line {reader.line_num}"
            if rid in out:
                raise EmbeddingParseError(f"{where}: duplicate id {rid!r}")
            if len(row) != dim + 1:
                raise DimMismatch(
                    f"{where}: id {rid!r} has dim {len(row) - 1}, header has {dim}"
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
    """Write embeddings as load_embeddings reads them, rows sorted by id,
    each value as repr(float), which reads back bitwise; the file is written
    fully or not at all (dataio.atomic_write). Raises ValueError,
    before opening path, for no embeddings, rows of mixed shape, or a row
    that is no vector, is zero (as dimension 0 is) or holds a non-finite value."""
    if not embeddings:
        raise ValueError("no embeddings to save")
    ids = sorted(embeddings)
    rows = [np.asarray(embeddings[rid], dtype=float) for rid in ids]
    if len({v.shape for v in rows}) > 1:
        raise ValueError("embeddings differ in dimension")
    for rid, values in zip(ids, rows):
        if values.ndim != 1:
            raise ValueError(f"embedding for id {rid!r} has shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite value for id {rid!r}")
        if not values.any():
            raise ValueError(f"zero vector for id {rid!r}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["id"] + [f"d{i}" for i in range(len(rows[0]))])
    for rid, values in zip(ids, rows):
        writer.writerow([rid] + [repr(float(x)) for x in values])
    atomic_write(path, buf.getvalue())


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
        tokens = tokenize_records(records.values())
        self.token_sets = dict(zip(ids, map(set, tokens)))
        if embeddings is None:
            matrix = hashed_tfidf(ids, tokens, self.config.dim, self.config.seed)
            self.embeddings = dict(zip(ids, matrix))
            return
        # one embedding per record: an id without a record is dropped
        missing = [rid for rid in ids if rid not in embeddings]
        if missing:
            raise MissingRecord(f"no embedding for record id {missing[0]!r}")
        self.embeddings = {rid: np.asarray(embeddings[rid], dtype=float) for rid in ids}
        shapes = sorted({v.shape for v in self.embeddings.values()})
        if len(shapes) > 1 or any(len(shape) != 1 or not shape[0] for shape in shapes):
            raise DimMismatch(f"embeddings need one shape (dim,), dim > 0: {shapes}")
        # one check of the stacked rows, which are alike vectors
        matrix = np.array(list(self.embeddings.values()))
        bad = np.flatnonzero(~np.isfinite(matrix).all(axis=-1))
        if bad.size:
            raise EmbeddingParseError(f"non-finite value for id {ids[bad[0]]!r}")

    def rows(self, ids) -> np.ndarray:
        """The embeddings of ids, stacked in order."""
        return np.array([self.embeddings[rid] for rid in ids])

    @cached_property
    def _incidence(self) -> tuple[csr_array, np.ndarray, dict[str, int]]:
        """token_incidence of every record, built on the first Jaccard read,
        its set sizes and each id's row."""
        incidence, sizes = token_incidence(self.token_sets.values())
        return incidence, sizes, {rid: k for k, rid in enumerate(self.token_sets)}

    def _tokens(self, ids) -> tuple[csr_array, np.ndarray]:
        """The incidence rows of ids and their set sizes."""
        incidence, sizes, row_of = self._incidence
        at = np.fromiter(map(row_of.__getitem__, ids), np.intp, len(ids))
        return incidence[at], sizes[at]

    def sims(self, ids, others=None) -> np.ndarray:
        """(len(ids), len(others)) similarities of ids with others (ids by
        default): token_incidence Jaccard, 1.0 for two token-less records, or
        cosine, which raises ZeroVector for a pair holding a zero embedding."""
        ids = list(ids)
        others = ids if others is None else list(others)
        if not ids or not others:
            return np.zeros((len(ids), len(others)))
        if self.config.measure == "jaccard":
            a, na = self._tokens(ids)
            b, nb = (a, na) if others is ids else self._tokens(others)
            shared = (a @ b.T).toarray()
            union = na[:, None] + nb[None, :] - shared
            return np.divide(shared, union, out=np.ones_like(shared), where=union > 0)
        a = self.rows(ids)
        b = a if others is ids else self.rows(others)
        na = row_norms(a)
        nb = na if b is a else row_norms(b)
        return cosine_blocks(a, b, na, nb)

    def group_sims(self, groups) -> list[np.ndarray]:
        """sims(group) of each id group, bitwise. Under cosine, one kernel
        call per stack of equal-size groups (_stacks); under Jaccard, one
        sims() read per group."""
        groups = [list(group) for group in groups]
        if self.config.measure == "jaccard":
            return [self.sims(group) for group in groups]
        out = [np.zeros((0, 0))] * len(groups)
        # a stack holds its gathered rows as well as its matrices
        for size, at in _stacks(groups, lambda size: size * (self._dim + size)):
            if not size:
                continue
            rows = self.rows(rid for k in at for rid in groups[k])
            rows = rows.reshape(len(at), size, -1)
            norms = row_norms(rows)
            for k, sims in zip(at, cosine_blocks(rows, rows, norms, norms)):
                out[k] = sims
        return out

    @property
    def _dim(self) -> int:
        return len(next(iter(self.embeddings.values())))

    def sim(self, a: str, b: str) -> float:
        return float(self.sims([a], [b])[0, 0])

    def representative(self, members) -> str:
        """The member whose embedding has the highest cosine with the
        members' mean embedding, by the least 1.0 - cosine, ties to the
        lowest id; the lowest id when the mean is zero (representatives)."""
        return self.representatives([members])[0]

    def representatives(self, groups) -> list[str]:
        """representative() of each group of ids: one kernel call per stack
        of equal-size groups (_stacks)."""
        groups = [sorted(group) for group in groups]
        # one member, or a zero mean: the lowest id
        out = [group[0] for group in groups]
        for size, at in _stacks(groups, lambda size: size * self._dim):
            if size < 2:
                continue
            rows = self.rows(rid for k in at for rid in groups[k])
            rows = rows.reshape(len(at), size, -1)
            mean = rows.mean(axis=1)
            norm = row_norms(mean)
            live = norm != 0.0
            # each group's rows against its one mean row
            rows, mean, norm = rows[live], mean[live, None], norm[live, None]
            sims = cosine_blocks(rows, mean, row_norms(rows), norm)[..., 0]
            best = np.argmin(1.0 - sims, axis=1).tolist()
            for k, pick in zip(np.asarray(at)[live].tolist(), best):
                out[k] = groups[k][pick]
        return out

