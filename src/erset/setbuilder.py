"""Record-set construction: size/diversity/variation-aware selection and ordering."""

from __future__ import annotations

import random

import numpy as np

from .model import ERError, SetConfig


class EmptyInput(ERError):
    pass


class TooFewPoints(ERError):
    pass


class BadK(ERError):
    pass


def variation(cluster_sizes) -> float:
    """Coefficient of variation (population sigma over mean) of cluster sizes."""
    sizes = list(cluster_sizes)
    if not sizes:
        raise EmptyInput("variation of an empty size list")
    mu = sum(sizes) / len(sizes)
    sigma = (sum((s - mu) ** 2 for s in sizes) / len(sizes)) ** 0.5
    return sigma / mu


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(len(points), len(centers)) squared Euclidean distances, each summed
    over its elementwise squared differences: the values that decide every
    k-means label."""
    return np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)


def _farthest_first(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k initial centers: the first drawn from the seeded RNG, each next the
    point farthest from the centers so far (ties to the lowest index). The
    draw for k is the first k centers of any longer draw."""
    n = len(points)
    rng = random.Random(seed)
    centers = [points[rng.randrange(n)]]
    dist2 = np.sum((points - centers[0]) ** 2, axis=1)
    while len(centers) < k:
        idx = int(np.argmax(dist2))
        centers.append(points[idx])
        dist2 = np.minimum(dist2, np.sum((points - centers[-1]) ** 2, axis=1))
    return np.array(centers)


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd steps from ``centers`` (updated in place); returns the labels
    and the final centers, each the mean of its cluster's points.

    Each step ranks the centers by the expanded distance ‖x‖² − 2x·c + ‖c‖²,
    one matrix product. Rounding in its three terms and in _sq_dists is
    below (4·dim + 8) machine epsilons of max‖x‖² + max‖c‖², so the two
    formulas differ by at most ``eps``, that bound or 1e-9 of the same
    scale, whichever is larger. A row whose best expanded distance is more
    than 2·eps below its second best therefore has that nearest center under
    _sq_dists too. Every other row, and the choice of a point to re-seed an
    emptied cluster, is decided by _sq_dists, so labels are bitwise those of
    _sq_dists alone.

    One exit: convergence or the 100-step cap.
    """
    n, k = len(points), len(centers)
    x2 = np.einsum("ij,ij->i", points, points)
    margin = max(1e-9, (4 * points.shape[1] + 8) * np.finfo(float).eps)
    x2_max = x2.max()
    rows = np.arange(n)
    labels = np.full(n, -1, dtype=int)
    for _ in range(100):
        c2 = np.einsum("ij,ij->i", centers, centers)
        d = x2[:, None] - 2.0 * (points @ centers.T) + c2
        eps = margin * (x2_max + c2.max())
        new_labels = np.argmin(d, axis=1)
        if k > 1:
            gap = np.partition(d, 1, axis=1)[:, 1] - d[rows, new_labels]
            close = np.flatnonzero(gap <= 2 * eps)
            if close.size:
                new_labels[close] = np.argmin(_sq_dists(points[close], centers), axis=1)
        # Re-seed each emptied cluster with the point farthest from its own
        # center, never stealing from a cluster that would empty in turn (so
        # no re-seed empties another cluster).
        for c in np.flatnonzero(np.bincount(new_labels, minlength=k) == 0):
            counts = np.bincount(new_labels, minlength=k)
            own = np.where(counts[new_labels] > 1, d[rows, new_labels], -1.0)
            near = np.flatnonzero(own >= own.max() - 2 * eps)
            mine = new_labels[near]
            exact = _sq_dists(points[near], centers)[np.arange(len(near)), mine]
            exact = np.where(counts[mine] > 1, exact, -1.0)
            new_labels[near[int(np.argmax(exact))]] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return labels, centers


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Seeded Lloyd k-means with farthest-point init; returns a label array.

    Deterministic for a fixed seed: the first center is drawn from the seeded
    RNG, the rest by farthest-point (ties to the lowest index; _farthest_first),
    then _lloyd runs from them. elbow_k runs the same two steps, so its labels
    for a k equal kmeans(points, k, seed).
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if not 1 <= k <= n:
        raise BadK(f"k={k} outside [1, {n}]")
    return _lloyd(points, _farthest_first(points, k, seed))[0]


def elbow_k(
    points: np.ndarray, k_max: int, seed: int = 0
) -> tuple[int, np.ndarray]:
    """Discrete knee of the within-cluster SSE curve (max second difference).

    Returns the chosen k, k ≤ distinct rows and k ≤ k_max, and the k-means
    labels for it from the same run that scored it. Rows are counted
    distinct by their bytes after adding 0.0, so −0.0 and 0.0 are one value.
    One farthest-first draw serves every k: the run for k starts from its
    first k centers, which is the draw kmeans(points, k, seed) makes. k = 1
    is one cluster and needs no run; each k ≥ 2 is one _lloyd run, and its
    SSE is summed per cluster around that run's final centers, which are
    its clusters' means.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < 2:
        raise TooFewPoints("elbow needs at least 2 points")
    if k_max < 1:
        raise BadK(f"k_max={k_max} below 1")
    k_cap = min(k_max, len({row.tobytes() for row in points + 0.0}))
    first = _farthest_first(points, k_cap, seed)
    labels = {1: np.zeros(n, dtype=int)}
    # the one cluster's mean, taken from its rows as _lloyd takes means
    centers = {1: points[labels[1] == 0].mean(axis=0)[None]}
    for k in range(2, k_cap + 1):
        labels[k], centers[k] = _lloyd(points, first[:k].copy())
    sse = {}
    for k in labels:
        sse[k] = 0.0
        for c in range(k):
            sse[k] += float(np.sum((points[labels[k] == c] - centers[k][c]) ** 2))
    if sse[1] < 1e-12 or k_cap == 1:
        return 1, labels[1]
    if k_cap == 2:
        k = 2 if sse[2] < sse[1] else 1
        return k, labels[k]
    sse[k_cap + 1] = sse[k_cap]  # pad so k_cap itself is a knee candidate
    best_k, best_d2 = 2, -float("inf")
    for k in range(2, k_cap + 1):
        d2 = sse[k - 1] - 2 * sse[k] + sse[k + 1]
        if d2 > best_d2 + 1e-12:
            best_k, best_d2 = k, d2
    return best_k, labels[best_k]


def similarity_chain(sims: np.ndarray, first: int) -> list[int]:
    """Greedy similarity chain over the indices of a square similarity
    matrix: start at ``first``, then append the remaining index most similar
    to the last appended (ties to the lowest index)."""
    order = [first]
    # remaining is in index order and max() keeps the first maximum
    remaining = [i for i in range(len(sims)) if i != first]
    while remaining:
        best = max(remaining, key=sims[order[-1]].__getitem__)
        remaining.remove(best)
        order.append(best)
    return order


def pre_clusters(ids, config: SetConfig, index) -> dict:
    """The block-level k-means pre-clustering: id -> label over ``ids``, with
    k chosen by the elbow over k = 1..set_diversity + 2, capped at the
    block's distinct rows; one farthest-first draw and one Lloyd run per
    k ≥ 2 (elbow_k)."""
    ids = sorted(ids)
    _, labels = elbow_k(
        index.rows(ids), k_max=config.set_diversity + 2, seed=config.seed
    )
    return {rid: int(label) for rid, label in zip(ids, labels)}


def next_record_set(
    b_remain, config: SetConfig, index, cluster_of=None, turn: int = 0, sims=None
) -> tuple[list, np.ndarray]:
    """Select and order the members of the next record set from a block.

    Returns min(|b_remain|, set_size) ids in one greedy similarity chain from
    the lowest id, and their similarity matrix in that order (the chain's
    one read, permuted); the caller removes the ids from the block. A
    b_remain that fits one set may come with ``sims``, the matrix of its
    sorted ids, read already (Resolver.resolve reads them stacked). For
    oversized blocks, the block's k-means pre-clusters (``cluster_of``, from
    ``pre_clusters``; computed over ``b_remain`` when not given) drive
    diversity: floor(S_s/S_d) records per sufficiently large pre-cluster,
    largest remaining pre-cluster first (ties by label rotated by the draw
    number ``turn``), then fillers chosen to least increase the coefficient
    of variation of the selected pre-cluster-size profile.
    """
    pool = sorted(b_remain)
    if not pool:
        raise EmptyInput("next_record_set on an empty block")
    if len(pool) > config.set_size:
        if cluster_of is None:
            cluster_of = pre_clusters(pool, config, index)

        by_cluster: dict[int, list[str]] = {}
        for rid in pool:
            by_cluster.setdefault(cluster_of[rid], []).append(rid)
        # rotating the tie-break spreads successive draws over equal-sized
        # pre-clusters instead of always starting from the same one
        n_labels = max(cluster_of.values()) + 1
        order = sorted(
            by_cluster, key=lambda c: (-len(by_cluster[c]), (c - turn) % n_labels)
        )

        target_size = config.set_size // config.set_diversity
        selected: list[str] = []
        for c in order:
            members = by_cluster[c]
            room = config.set_size - len(selected)
            # order is largest first, so no later pre-cluster qualifies either
            if room <= 0 or len(members) < target_size:
                break
            points = index.rows(members)
            # seed on the centroid-nearest record (ties to the lowest id), then
            # grow by nearest neighbour within the pre-cluster: a coherent draw
            # keeps likely duplicates in the same record set, where a spread of
            # centroid-nearest records from a mixed pre-cluster would rarely
            # contain any duplicate pair
            spread = np.linalg.norm(points - points.mean(axis=0), axis=1)
            seed_pos = int(np.argmin(spread))
            take = [members[seed_pos]]
            # in id order, so argmax breaks similarity ties toward the lowest id;
            # nearest[k] is candidate k's best similarity to the records taken,
            # one kernel column per pick
            candidates = members[:seed_pos] + members[seed_pos + 1 :]
            nearest = np.full(len(candidates), -np.inf)
            while len(take) < min(target_size, room) and candidates:
                np.maximum(nearest, index.sims(candidates, take[-1:])[:, 0], out=nearest)
                k = int(nearest.argmax())
                take.append(candidates.pop(k))
                nearest = np.delete(nearest, k)
            selected.extend(take)

        # A filler's cost depends only on its pre-cluster, so each pick scores
        # every pre-cluster with records left once and takes the cheapest one's
        # lowest id (cost ties to the lowest id). ``left`` holds each
        # pre-cluster's records left, lowest id last; ``profile`` keeps its labels
        # in order of first appearance in ``selected``, the order variation sums in.
        taken = set(selected)
        left = {
            c: [rid for rid in reversed(ids) if rid not in taken]
            for c, ids in by_cluster.items()
        }
        profile: dict[int, int] = {}
        for rid in selected:
            profile[cluster_of[rid]] = profile.get(cluster_of[rid], 0) + 1
        while len(selected) < config.set_size and any(left.values()):
            _, rid, c = min(
                (variation({**profile, c: profile.get(c, 0) + 1}.values()), ids[-1], c)
                for c, ids in left.items()
                if ids
            )
            left[c].pop()
            profile[c] = profile.get(c, 0) + 1
            selected.append(rid)
        pool = sorted(selected)
    if sims is None:
        sims = index.sims(pool)
    chain = similarity_chain(sims, 0)
    return [pool[k] for k in chain], sims[np.ix_(chain, chain)]
