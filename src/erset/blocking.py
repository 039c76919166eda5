"""Initial block creation: an exact Jaccard self-join over token sets, their
token_incidence product run in row stripes of bounded size, or random-hyperplane
LSH over embeddings, which tests cosine b_t only on pairs that share a band
bucket and so can miss pairs at some cost in recall."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

from .metrics import pairwise_f1
from .model import ERError
from .similarity import _bucket_pairs, _pairs, token_incidence


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
    method: str = "lsh"  # "filter" or "lsh"
    b_t: float = 0.5
    lsh_planes: int = 64
    lsh_bands: int = 8
    k_candidates: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("filter", "lsh"):
            raise ValueError(f"unknown blocking method: {self.method!r}")
        if not 0.0 < self.b_t < 1.0:
            raise ValueError("b_t must be in (0, 1)")
        if self.lsh_planes < 1 or self.lsh_bands < 1:
            raise ValueError("lsh_planes and lsh_bands must be positive")
        if self.lsh_bands > self.lsh_planes:
            raise ValueError("lsh_bands must not exceed lsh_planes")
        if self.k_candidates < 1:
            raise ValueError("k_candidates must be positive")


def _components(ids: list[str], ia, ib) -> list[Block]:
    """Disjoint blocks as connected components of the graph on the sorted
    ids whose edges join ids[ia[k]] and ids[ib[k]]. Edges may repeat and
    point either way."""
    if not ids:
        return []
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    # every stored entry is an edge, whatever its weight; repeats merge
    graph = coo_array((np.ones(len(ia)), (ia, ib)), shape=(len(ids), len(ids)))
    _, labels = connected_components(graph, directed=False)
    groups: dict[int, list[str]] = {}
    for rid, label in zip(ids, labels.tolist()):
        groups.setdefault(label, []).append(rid)
    # a component first appears at its lowest record index, so the blocks
    # come in order of their smallest id, whatever the labels' numbering
    return [
        Block(block_id=f"b{i:05d}", members=tuple(members))
        for i, members in enumerate(groups.values())
    ]


def filter_block(token_sets: dict[str, set], params: BlockingParams) -> list[Block]:
    """Jaccard self-join at threshold b_t, then components. Each record keeps
    at most k_candidates partners at or above b_t: most similar first, then
    lowest id.

    The token_incidence product that sims reads Jaccard from, read by _pairs
    in dense row stripes, gives each pair's exact count c of shared tokens and
    Jaccard c / (|a| + |b| - c). A pair sharing no token scores 0: two
    token-less records never pair here, though sims scores them 1.0.
    """
    ids = sorted(token_sets)
    incidence, sizes = token_incidence([token_sets[rid] for rid in ids])
    transposed = incidence.T.tocsr()

    def read(lo, hi):
        shared = (incidence[lo:hi] @ transposed).toarray()
        union = sizes[lo:hi, None] - shared
        union += sizes
        # exact small integers; 0 only for two token-less records, sharing 0
        return np.divide(shared, np.maximum(union, 1, out=union), out=shared)

    edges = [np.empty((2, 0), dtype=np.intp)]  # (rows, partners) per stripe
    for i, j, sim in _pairs(len(ids), read, params.b_t):
        # by row, then similarity descending, then column: each row's first
        # k_candidates are its top
        order = np.lexsort((j, -sim, i))
        i, j = i[order], j[order]
        top = np.arange(len(i)) - np.searchsorted(i, i) < params.k_candidates
        edges.append(np.stack((i, j))[:, top])
    return _components(ids, *np.hstack(edges))


def _band_buckets(band: np.ndarray) -> list[np.ndarray]:
    """Rows of every bucket of two or more rows with equal band bits, as one
    (buckets, size) array per bucket size; each bucket's rows ascend."""
    n = len(band)
    # lexicographic row order; the row index, as the last tie-break, keeps
    # the rows of each bucket ascending
    order = np.lexsort((np.arange(n), *band.T))
    sorted_band = band[order]
    changed = np.any(sorted_band[1:] != sorted_band[:-1], axis=1)
    starts = np.flatnonzero(np.r_[True, changed])
    sizes = np.diff(np.r_[starts, n])
    return [
        order[starts[sizes == size][:, None] + np.arange(size)]
        for size in np.unique(sizes[sizes >= 2])
    ]


def lsh_block(
    embeddings: dict[str, np.ndarray], params: BlockingParams
) -> list[Block]:
    """Random-hyperplane LSH banding, purified by an exact cosine check at b_t.

    Rows sharing a band's bit pattern form a bucket. The buckets of all
    bands are read together (similarity._bucket_pairs, which stacks them by
    size), and each bucket's pairs at or above b_t join the graph whose
    components are the blocks. A pair found in several bands adds its edge
    several times, which changes no component.
    """
    ids = sorted(embeddings)
    if not ids:
        return []
    dim = len(next(iter(embeddings.values())))
    rng = np.random.default_rng(params.seed)
    planes = rng.standard_normal((params.lsh_planes, dim))
    matrix = np.array([embeddings[rid] for rid in ids], dtype=float)
    bits = (matrix @ planes.T) > 0  # n x planes

    rows_per_band = params.lsh_planes // params.lsh_bands
    buckets = [
        rows
        for lo in range(0, params.lsh_bands * rows_per_band, rows_per_band)
        for stack in _band_buckets(bits[:, lo : lo + rows_per_band])
        for rows in stack
    ]
    return _components(ids, *_bucket_pairs(matrix, buckets, params.b_t))


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

    # a pair's level counts the grid thresholds it passes; the forest, a
    # minimum spanning one of the pairs so far by top - level (0 is no edge),
    # has at or above each level the components of that level's pairs
    grid, top = THRESHOLD_GRID, len(THRESHOLD_GRID) + 1
    forest = np.empty((3, 0), dtype=np.intp)  # rows, partners, levels
    for i, j, sim in _pairs(
        len(ids), lambda lo, hi: index.sims(ids[lo:hi], ids), grid[0]
    ):
        a, b, level = np.hstack((forest, (i, j, np.searchsorted(grid, sim, "right"))))
        graph = coo_array((top - level, (a, b)), shape=(len(ids), len(ids)))
        tree = minimum_spanning_tree(graph).tocoo()
        forest = np.stack((tree.row, tree.col, top - tree.data.astype(np.intp)))
    truth_sub = {rid: truth[rid] for rid in ids}
    best_t, best_f1 = None, 0.0
    for k, t in enumerate(grid):
        blocks = _components(ids, *forest[:2, forest[2] > k])
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
    if method == "none":
        ids = tuple(sorted(records))
        return [Block("b00000", ids)] if ids else []
    raise ValueError(f"unknown blocking method: {method!r}")
