"""Initial block creation: similarity-join filtering, LSH and canopy strategies."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import pairwise_f1
from .model import ConstraintStore, ERError
from .similarity import jaccard, pair_cosines, row_norms


class BadThresholds(ERError):
    pass


class NoValidationData(ERError):
    pass


@dataclass(frozen=True)
class Block:
    block_id: str
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class BlockingParams:
    method: str = "lsh"  # "filter", "lsh" or "canopy"
    b_t: float = 0.5
    lsh_planes: int = 64
    lsh_bands: int = 8
    b_s: float = 0.8
    m_s: float = 0.5
    k_candidates: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("filter", "lsh", "canopy"):
            raise ValueError(f"unknown blocking method: {self.method!r}")
        if not 0.0 < self.b_t < 1.0:
            raise ValueError("b_t must be in (0, 1)")
        if self.lsh_planes < 1 or self.lsh_bands < 1:
            raise ValueError("lsh_planes and lsh_bands must be positive")
        if self.lsh_bands > self.lsh_planes:
            raise ValueError("lsh_bands must not exceed lsh_planes")
        if self.b_s < self.m_s:
            raise BadThresholds("canopy requires b_s >= m_s")


def _components(record_ids, pairs) -> list[Block]:
    """Disjoint blocks as connected components of the kept-pair graph."""
    store = ConstraintStore(record_ids)
    for a, b in sorted(pairs):
        store.merge(a, b)
    blocks = []
    for i, (rep, members) in enumerate(sorted(store.components().items())):
        blocks.append(Block(block_id=f"b{i:05d}", members=tuple(members)))
    return blocks


def filter_block(token_sets: dict[str, set], params: BlockingParams) -> list[Block]:
    """Prefix-filtered Jaccard self-join at threshold b_t, then components.

    Tokens are ordered rarest-first; a record's prefix is the shortest token
    run that any b_t-similar record must share one token with. Candidate
    survivors are verified exactly; each record keeps at most k_candidates
    partners (highest similarity first).
    """
    ids = sorted(token_sets)
    df: dict[str, int] = {}
    for rid in ids:
        for t in token_sets[rid]:
            df[t] = df.get(t, 0) + 1
    rank = {t: i for i, (t) in enumerate(sorted(df, key=lambda t: (df[t], t)))}
    ordered = {rid: sorted(token_sets[rid], key=rank.__getitem__) for rid in ids}

    t = params.b_t
    index: dict[str, list[str]] = {}
    candidates: dict[str, set[str]] = {rid: set() for rid in ids}
    for rid in ids:
        tokens = ordered[rid]
        if not tokens:
            continue
        prefix_len = len(tokens) - math.ceil(t * len(tokens)) + 1
        for token in tokens[:prefix_len]:
            for other in index.get(token, ()):
                # length filter: |a| >= t * |b| is necessary for jaccard >= t
                la, lb = len(tokens), len(ordered[other])
                if min(la, lb) < t * max(la, lb):
                    continue
                candidates[rid].add(other)
            index.setdefault(token, []).append(rid)

    scored: dict[str, list[tuple[float, str]]] = {rid: [] for rid in ids}
    for rid in ids:
        for other in candidates[rid]:
            sim = jaccard(token_sets[rid], token_sets[other])
            if sim >= t:
                scored[rid].append((sim, other))
                scored[other].append((sim, rid))
    kept: set[tuple[str, str]] = set()
    for rid in ids:
        top = sorted(scored[rid], key=lambda p: (-p[0], p[1]))[: params.k_candidates]
        for _, other in top:
            kept.add((min(rid, other), max(rid, other)))
    return _components(ids, kept)


# Candidate pairs verified per kernel call: bounds the gathered
# (2, chunk, dim) rows, so peak memory does not grow with the number of
# candidates.
_VERIFY_CHUNK = 1024


def _band_pairs(band: np.ndarray) -> np.ndarray:
    """Codes lo*n+hi (lo < hi) of every pair of rows with equal band bits."""
    n = len(band)
    # lexicographic row order; the row index, as the last tie-break, keeps
    # the rows of each bucket ascending (and gives a zero-width band a key)
    order = np.lexsort((np.arange(n), *band.T))
    sorted_band = band[order]
    changed = np.any(sorted_band[1:] != sorted_band[:-1], axis=1)
    starts = np.flatnonzero(np.r_[True, changed])
    sizes = np.diff(np.r_[starts, n])
    codes = [np.empty(0, dtype=np.int64)]
    for size in np.unique(sizes[sizes >= 2]):
        # rows of every bucket of this size, ascending, so triu positions
        # give lo < hi
        rows = order[starts[sizes == size][:, None] + np.arange(size)]
        lo, hi = np.triu_indices(size, 1)
        codes.append((rows[:, lo] * n + rows[:, hi]).ravel())
    return np.concatenate(codes)


def lsh_block(
    embeddings: dict[str, np.ndarray], params: BlockingParams
) -> list[Block]:
    """Random-hyperplane LSH banding, purified by an exact cosine check at b_t.

    Rows sharing a band's bit pattern are candidates; candidates are
    deduplicated over all bands and verified in chunks of _VERIFY_CHUNK.
    """
    ids = sorted(embeddings)
    if not ids:
        return []
    n = len(ids)
    dim = len(next(iter(embeddings.values())))
    rng = np.random.default_rng(params.seed)
    planes = rng.standard_normal((params.lsh_planes, dim))
    matrix = np.array([embeddings[rid] for rid in ids], dtype=float)
    bits = (matrix @ planes.T) > 0  # n x planes

    rows_per_band = params.lsh_planes // params.lsh_bands
    codes = np.unique(
        np.concatenate(
            [
                _band_pairs(bits[:, lo : lo + rows_per_band])
                for lo in range(0, params.lsh_bands * rows_per_band, rows_per_band)
            ]
        )
    )

    norms = row_norms(matrix)
    kept = []
    for chunk in range(0, len(codes), _VERIFY_CHUNK):
        ia, ib = np.divmod(codes[chunk : chunk + _VERIFY_CHUNK], n)
        keep = pair_cosines(matrix, norms, ia, ib) >= params.b_t
        kept.extend(zip((ids[i] for i in ia[keep]), (ids[i] for i in ib[keep])))
    return _components(ids, kept)


def _edit_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return 1.0 - prev[-1] / max(len(a), len(b))


def canopy_block(
    records: dict,
    token_sets: dict[str, set],
    params: BlockingParams,
) -> list[Block]:
    """Two-threshold canopy blocking.

    A cheap metric (edit similarity on the first textual attribute, with an
    inverted word index limiting candidate pairs) merges pairs above b_s
    directly; pairs above m_s form canopies where refined Jaccard over all
    attributes decides, merging transitively until fixpoint.
    """
    if params.b_s < params.m_s:
        raise BadThresholds("canopy requires b_s >= m_s")
    ids = sorted(records)

    def cheap_key(record) -> str:
        for attr in record.attributes:
            if attr.kind == "textual" and attr.value:
                return attr.value.lower()
        return ""

    keys = {rid: cheap_key(records[rid]) for rid in ids}
    inverted: dict[str, list[str]] = {}
    for rid in ids:
        for word in set(keys[rid].split()):
            inverted.setdefault(word, []).append(rid)

    candidate_pairs: set[tuple[str, str]] = set()
    for bucket in inverted.values():
        for x in range(len(bucket)):
            for y in range(x + 1, len(bucket)):
                a, b = bucket[x], bucket[y]
                candidate_pairs.add((min(a, b), max(a, b)))

    merged: set[tuple[str, str]] = set()
    for a, b in sorted(candidate_pairs):
        cheap = _edit_similarity(keys[a], keys[b])
        if cheap > params.b_s:
            merged.add((a, b))
        elif cheap > params.m_s:
            if jaccard(token_sets[a], token_sets[b]) > params.b_s:
                merged.add((a, b))
    # _components unions transitively, which is exactly the iterative
    # block-merging fixpoint.
    return _components(ids, merged)


THRESHOLD_GRID = [round(0.05 * i, 2) for i in range(1, 20)]


def tune_threshold(ids, index, truth: dict[str, str]) -> float:
    """Sweep thresholds 0.05..0.95 (step 0.05) over the index's similarities,
    maximizing pairwise F1 of the induced blocking; ties break toward the
    smaller threshold. Returns 0.95 when F1 is zero everywhere."""
    ids = sorted(ids)
    if not ids or not truth:
        raise NoValidationData("threshold tuning needs labeled records")
    missing = [rid for rid in ids if rid not in truth]
    if missing:
        raise NoValidationData(f"no label for record id {missing[0]!r}")

    lo, hi = np.triu_indices(len(ids), 1)
    sims = index.sims(ids)[lo, hi]
    truth_sub = {rid: truth[rid] for rid in ids}
    best_t, best_f1 = None, 0.0
    for t in THRESHOLD_GRID:
        keep = sims >= t
        pairs = zip((ids[i] for i in lo[keep]), (ids[i] for i in hi[keep]))
        blocks = _components(ids, pairs)
        pred = {rid: block.block_id for block in blocks for rid in block.members}
        _, _, f1 = pairwise_f1(pred, truth_sub)
        if f1 > best_f1 + 1e-12:
            best_t, best_f1 = t, f1
    if best_t is None:
        return THRESHOLD_GRID[-1]
    return best_t


def make_blocks(
    method: str,
    records: dict,
    token_sets: dict[str, set],
    embeddings: dict[str, np.ndarray],
    params: BlockingParams,
) -> list[Block]:
    if method == "filter":
        return filter_block(token_sets, params)
    if method == "lsh":
        return lsh_block(embeddings, params)
    if method == "canopy":
        return canopy_block(records, token_sets, params)
    if method == "none":
        ids = tuple(sorted(records))
        return [Block("b00000", ids)] if ids else []
    raise ValueError(f"unknown blocking method: {method!r}")
