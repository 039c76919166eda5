"""Resolution engine: misclustering guardrail, set regeneration, hierarchical
cluster merging, exit condition and the end-to-end driver."""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Generator, Iterable, Sequence
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .blocking import Block
from .gateway import LlmGateway
from .model import (
    ClusterNode,
    ConstraintStore,
    CostLedger,
    Partition,
    Record,
    RecordSet,
    SetClustering,
    SetConfig,
)
from .setbuilder import next_record_set, pre_clusters, similarity_chain
from .similarity import SimilarityConfig, SimilarityIndex


@dataclass
class GuardrailStats:
    """Outcome counts of the misclustering check. Every failed check ends in
    exactly one of: a call-free repair, a regeneration, or exhaustion.
    ``fallbacks`` counts clusterings the backend never answered parseably."""

    checks_failed: int = 0
    repaired: int = 0
    regenerations: int = 0
    exhausted: int = 0
    fallbacks: int = 0
    conflict_warnings: int = 0

    def add(self, other: "GuardrailStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


def _labels(clustering: SetClustering, n: int) -> np.ndarray:
    labels = np.empty(n, dtype=int)
    for gi, group in enumerate(clustering.groups):
        labels[list(group)] = gi
    return labels


def _misclustered_mask(labels: np.ndarray, sims: np.ndarray) -> np.ndarray:
    """For (m, n) group labels of m clusterings of one set: True where a
    record's minimum within-group similarity (1.0 without mates) is below its
    maximum cross-group similarity (0.0 without other groups)."""
    same = labels[:, :, None] == labels[:, None, :]
    mates = same & ~np.eye(labels.shape[1], dtype=bool)
    others = ~same
    intra = np.where(mates, sims, np.inf).min(axis=2)
    intra = np.where(mates.any(axis=2), intra, 1.0)
    inter = np.where(others, sims, -np.inf).max(axis=2)
    inter = np.where(others.any(axis=2), inter, 0.0)
    return intra < inter


def _misclustered(clustering: SetClustering, sims: np.ndarray) -> list[int]:
    mask = _misclustered_mask(_labels(clustering, len(sims))[None, :], sims)[0]
    return [int(pos) for pos in np.flatnonzero(mask)]


def mdg_check(clustering: SetClustering, sims: np.ndarray) -> bool:
    """Misclustering detection guardrail: passes unless some record's minimum
    within-group similarity is below its maximum cross-group similarity.
    ``sims`` is the similarity matrix of the set's representatives, in set
    order."""
    return not _misclustered(clustering, sims)


def repair_clustering(
    clustering: SetClustering, sims: np.ndarray
) -> SetClustering | None:
    """Call-free repair of a clustering that fails the check.

    Greedy local search: each step moves one record to another group or into
    a group of its own, taking the move that most reduces the number of
    misclustered records (ties to the lowest position, then the lowest group
    index, a new group last). Returns the first clustering that passes
    the check, or None when no move improves the current one.
    """
    labels = _labels(clustering, len(sims))
    bad = int(_misclustered_mask(labels[None, :], sims).sum())
    while bad:
        groups, own, sizes = np.unique(labels, return_inverse=True, return_counts=True)
        targets = np.append(groups, groups[-1] + 1)
        # allowed[p, t]: record p may move to targets[t]; row-major order is
        # the move order (position, then group, a new group last)
        allowed = targets != labels[:, None]
        allowed[:, -1] = sizes[own] > 1
        moved, to = np.nonzero(allowed)
        candidates = np.repeat(labels[None, :], len(moved), axis=0)
        candidates[np.arange(len(moved)), moved] = targets[to]
        counts = _misclustered_mask(candidates, sims).sum(axis=1)
        best = int(np.argmin(counts))
        if counts[best] >= bad:
            return None
        labels, bad = candidates[best], int(counts[best])
    members: dict[int, list[int]] = {}
    for pos, label in enumerate(labels.tolist()):
        members.setdefault(label, []).append(pos)
    return SetClustering(clustering.source, tuple(tuple(g) for g in members.values()))


def regenerate_set(
    record_set: RecordSet, clustering: SetClustering, sims: np.ndarray
) -> tuple[RecordSet, np.ndarray]:
    """Reorder a rejected set: each misclustered record (original order) is
    moved to sit immediately after the last member of the group it is most
    similar to. The member multiset is unchanged. ``sims`` is the similarity
    matrix of the set's representatives, in set order; it is returned with
    the reordered set, permuted the same way."""
    members = record_set.members
    group_of = {pos: gi for gi, g in enumerate(clustering.groups) for pos in g}
    order = list(range(len(members)))
    for pos in _misclustered(clustering, sims):
        best_group, best_sim = None, -math.inf
        for gi, group in enumerate(clustering.groups):
            if gi == group_of[pos]:
                continue
            sim = max(sims[pos, q] for q in group)
            if sim > best_sim:
                best_group, best_sim = gi, sim
        if best_group is None:
            continue
        order.remove(pos)
        anchor = max(
            order.index(q) for q in clustering.groups[best_group] if q != pos
        )
        order.insert(anchor + 1, pos)
    reordered = RecordSet(record_set.set_id, tuple(members[i] for i in order))
    return reordered, sims[np.ix_(order, order)]


def guarded_cluster(
    asked: Sequence[tuple[RecordSet, np.ndarray]],
    ask: Callable[[list[RecordSet]], Iterable[SetClustering]],
    max_regen: int,
) -> tuple[list[tuple[RecordSet, SetClustering]], GuardrailStats]:
    """Cluster a round's prompts with the guardrail.

    ``asked`` pairs each prompt, a record set, with the similarity matrix of
    its representatives, in prompt order; the check and every remedy read
    it. ``ask`` maps a list of record sets to their clusterings, yielded in
    that order (Resolver._round maps the gateway's cluster_records over
    them, through a thread pool or plain ``map``). Each clustering is
    checked as it arrives. When
    the check fails, the clustering is first repaired without a call
    (repair_clustering); a repaired clustering is accepted, flagged
    "guardrail-repaired". Only when no move improves it is the prompt
    reordered, with its matrix (regenerate_set), and asked again whole in
    the next wave, up to max_regen times; the last clustering is then kept
    either way, flagged "guardrail-exhausted" if it still fails.
    max_regen=0 turns off both remedies. So each prompt gets the same calls,
    under its own id, however the round's prompts are scheduled.

    A one-member set has one valid clustering and costs no call. A
    "fallback-singletons" clustering is no answer, so it is not checked; it
    is kept as is and counted in ``fallbacks``.
    Returns each prompt as it was last asked (regeneration reorders it) with
    its clustering, in the order of ``asked``, and the round's counts.
    """
    stats = GuardrailStats()
    current = list(asked)
    answered: list = [None] * len(current)
    regenerations = [0] * len(current)
    wave = []
    for k, (record_set, _) in enumerate(current):
        if len(record_set) == 1:
            answered[k] = (record_set, SetClustering(record_set.set_id, ((0,),)))
        else:
            wave.append(k)
    while wave:
        again = []
        for k, clustering in zip(wave, ask([current[k][0] for k in wave])):
            record_set, sims = current[k]
            if not _is_fallback(clustering) and not mdg_check(clustering, sims):
                stats.checks_failed += 1
                repaired = repair_clustering(clustering, sims) if max_regen else None
                if repaired is not None:
                    stats.repaired += 1
                    clustering = repaired.with_flag("guardrail-repaired")
                elif regenerations[k] < max_regen:
                    current[k] = regenerate_set(record_set, clustering, sims)
                    regenerations[k] += 1
                    stats.regenerations += 1
                    again.append(k)
                    continue
                else:
                    stats.exhausted += 1
                    clustering = clustering.with_flag("guardrail-exhausted")
            stats.fallbacks += _is_fallback(clustering)
            answered[k] = (record_set, clustering)
        wave = again
    return answered, stats


def _is_fallback(clustering: SetClustering) -> bool:
    return "fallback-singletons" in clustering.flags


def _all_fell_back(answered: list[tuple[RecordSet, SetClustering]]) -> bool:
    return all(_is_fallback(clustering) for _, clustering in answered)


def apply_clustering(
    store: ConstraintStore, record_set: RecordSet, clustering: SetClustering
) -> int:
    """Fold one set clustering into the constraint store.

    Group mates are must-linked; distinct groups are pairwise cannot-linked.
    When a group contradicts existing cannot-links it is split along them
    (earlier evidence wins) and a conflict warning is counted; a cannot-link
    between groups that already share a root is skipped with a warning. A
    fallback clustering records no answer and adds no cannot-links.
    Returns the warning count; the new nodes are read from the store
    (Resolver._nodes).
    """
    clustering.validate(record_set)
    warnings = 0
    merged: list[list[ClusterNode]] = []
    for group in clustering.groups:
        nodes = [record_set.members[pos] for pos in group]
        subgroups: list[list[ClusterNode]] = []
        for node in nodes:
            placed = False
            for sub in subgroups:
                if all(
                    not store.cannot_link(node.representative, other.representative)
                    for other in sub
                ):
                    sub.append(node)
                    placed = True
                    break
            if not placed:
                subgroups.append([node])
        if len(subgroups) > 1:
            warnings += 1
        for sub in subgroups:
            for a, b in zip(sub, sub[1:]):
                store.merge(a.representative, b.representative)
        merged.extend(subgroups)

    if not _is_fallback(clustering):
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                a = merged[i][0].representative
                b = merged[j][0].representative
                if store.same_entity(a, b):
                    warnings += 1
                else:
                    store.add_cannot_link(a, b)
    return warnings


def _ranked(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``codes`` ordered by similarity descending, then code ascending."""
    keys = -values[codes]
    rank = np.argsort(keys)
    # the sort is not stable: put each run of equal similarities back in code
    # order, the row-major order of a masked argmax
    keys = keys[rank]
    tie = np.flatnonzero(keys[1:] == keys[:-1])
    if tie.size:
        mask = np.zeros(len(keys), dtype=bool)
        mask[tie] = mask[tie + 1] = True
        tied = np.flatnonzero(mask)
        rank[tied] = rank[tied][np.lexsort((rank[tied], keys[tied]))]
    return codes[rank]


class _RankedPairs:
    """The cross-origin upper-triangle pairs of a round's similarity matrix,
    ranked once: open pairs (see open_pairs) before settled ones, and within
    each group similarity descending, then row, then column. Within a group
    that is the order in which a row-major argmax over the matrix, masked to
    the group's pairs of available nodes, finds its first maximum.

    Pairs are kept as flat matrix codes. Every pair before ``head`` holds a
    node already selected this round; each search scans from it in chunks
    that double in length."""

    def __init__(self, sims: np.ndarray, origin: np.ndarray, open_: np.ndarray):
        self.width = len(origin)
        self.values = sims.ravel()
        cross = np.triu(origin[:, None] != origin, 1)
        opened = _ranked(np.flatnonzero(cross & open_), self.values)
        settled = _ranked(np.flatnonzero(cross & ~open_), self.values)
        self.codes = np.concatenate([opened, settled])
        self.opened = len(opened)
        self.head = 0

    def first(
        self, available: np.ndarray, floor: float, restart: bool
    ) -> tuple[int, int] | None:
        """The first ranked pair of two available nodes whose similarity is
        above ``floor``: the best open pair, or, failing that, the best
        settled one. Each group is scanned from ``head`` until its
        similarities fall to ``floor``. On a wave's first search
        (``restart``) ``floor`` is -inf and every unselected node is
        available, so the pairs before the one found hold a selected node:
        ``head`` moves to it."""
        for start, end in (
            (self.head, self.opened),
            (max(self.head, self.opened), len(self.codes)),
        ):
            size = 64
            while start < end and self.values[self.codes[start]] > floor:
                codes = self.codes[start : min(start + size, end)]
                rows, cols = np.divmod(codes, self.width)
                hits = np.flatnonzero(available[rows] & available[cols])
                if hits.size:
                    k = hits[0]
                    if self.values[codes[k]] <= floor:
                        break
                    if restart:
                        self.head = start + k
                    return int(rows[k]), int(cols[k])
                start += size
                size *= 2
        if restart:
            self.head = len(self.codes)
        return None


def merge_round(
    origin: np.ndarray, sims: np.ndarray, set_size: int, open_: np.ndarray
) -> list[list[int]]:
    """One CMR round: pack a level's clusters into next-level record sets.

    Waves of greedy packing over the whole level: each wave seeds a new
    record set with the best open cross-origin pair of two available
    clusters, or, once no open pair is left, the best settled one; then it
    repeatedly appends the unselected cluster most similar to the growing
    set, or a pair of clusters more similar than that (open pairs first),
    up to min(S_s, origin sets) members. Every cluster is selected
    exactly once per round and two clusters from the same origin set are
    never co-packed (their separation is already known), so a wave takes at
    most one cluster per origin set. Each wave's clusters are chained so
    that similar ones sit adjacent (greedy sequential order).

    ``origin`` holds the clusters' origin-set labels, ``sims`` their
    similarity matrix and ``open_`` their open pairs (see open_pairs), all
    in representative order; returns each
    wave's chained cluster indices. A level of one origin set packs nothing.
    Candidate pairs are ranked once per round (_RankedPairs), so a round
    costs O(c² log c) for c clusters, not O(c²) per pick.
    """
    origins = len(np.unique(origin))
    if origins < 2:
        return []
    c = len(origin)
    size_cap = min(set_size, origins)
    # Pairs a wave may seed with. Index order is representative order, so of
    # several equal pairs the first ranked has the lowest smaller
    # representative, then the lowest larger one.
    ranked = _RankedPairs(sims, origin, open_)

    selected = np.zeros(c, dtype=bool)
    groups: list[list[int]] = []
    while not selected.all():
        # Build one output set. Each step adds either the best remaining
        # cross-origin pair (two clusters from two unused origin sets; the
        # best open pair, else the best settled one) or the single cluster
        # best matching the picks so far, whichever has the higher
        # similarity — joins win ties so entities complete. This packs several
        # likely-duplicate pairs into one set instead of burning origin-set
        # capacity on arbitrary fillers that would block a twin from entering
        # the wave. Join ties, and a seed without a pair, go to the lowest
        # representative.
        picks: list[int] = []
        available = ~selected
        join = np.full(c, -np.inf)  # best similarity to the picks so far
        while len(picks) < size_cap and available.any():
            joins = np.where(available, join, -np.inf)
            take = None
            if len(picks) + 2 <= size_cap:
                take = ranked.first(available, joins.max(), restart=not picks)
            if take is None:
                take = (int(joins.argmax() if picks else available.argmax()),)
            for i in take:
                selected[i] = True
                available[origin == origin[i]] = False
                np.maximum(join, sims[i], out=join)
                picks.append(i)
        # keep similar clusters adjacent: chain them in representative
        # order, so ties go to the lowest representative
        members = sorted(picks)
        chain = similarity_chain(
            sims[np.ix_(members, members)], members.index(picks[0])
        )
        groups.append([members[k] for k in chain])
    return groups


def open_pairs(
    nodes: Sequence[ClusterNode],
    store: ConstraintStore,
    config: SetConfig,
    sims: np.ndarray,
) -> np.ndarray:
    """Symmetric boolean matrix over ``nodes`` in the given order: True where
    a pair is open, i.e. its nodes have distinct store roots, no cannot-link,
    and representatives at least ``config.b_t`` similar. ``sims`` is the
    similarity matrix of the representatives, in node order.

    A pair below ``b_t`` is presumed distinct, as blocking presumes across
    blocks: it is not looked up in the store. Every other pair is determined
    by the store, so only an open pair can gain evidence from a call."""
    reps = [node.representative for node in nodes]
    close = np.triu(sims >= config.b_t, 1)
    out = np.zeros_like(close)
    for i, j in zip(*(ax.tolist() for ax in close.nonzero())):
        a, b = reps[i], reps[j]
        out[i, j] = not store.same_entity(a, b) and not store.cannot_link(a, b)
    return out | out.T


def final_check(open_: np.ndarray, set_size: int) -> list[list[int]]:
    """One wave of exit-condition sets: a greedy cover of the open pairs
    (see open_pairs) by groups of at most S_s nodes, each group maximizing
    the open pairs it newly covers. Known-distinct nodes may share a group —
    their pair adds no information, but mixing sides is what lets one call
    cover up to floor(S_s/2) * ceil(S_s/2) open pairs.

    ``open_`` is the level's symmetric open-pair matrix, in representative
    order, so argmax ties go to the lowest representative; returns each
    group's node indices in the order they were chosen."""
    uncovered = open_.copy()
    n = len(uncovered)
    out: list[list[int]] = []
    while uncovered.any():
        seed = int(uncovered.sum(axis=1).argmax())
        chosen = [seed]
        # newly covered pairs per candidate; chosen nodes sit at -n, below
        # any gain they can still collect
        gain = uncovered[seed].astype(int)
        gain[seed] = -n
        while len(chosen) < set_size:
            best = int(gain.argmax())
            if gain[best] <= 0:
                break
            chosen.append(best)
            gain += uncovered[best]
            gain[best] = -n
        rows = np.array(chosen)
        uncovered[rows[:, None], rows] = False
        out.append(chosen)
    return out


def pack_sets(sizes: Sequence[int], blocks: Sequence, set_size: int) -> list[list[int]]:
    """Group a round's record sets into prompts, so that sets smaller than one
    prompt share a call instead of each paying for its own.

    ``sizes`` and ``blocks`` give each set's member count and the block it
    comes from. Sets of 2 to ``set_size - 1`` members are packed
    first-fit-decreasing (size descending, then round order) into prompts of
    at most ``set_size`` members, never two sets of one block in a prompt;
    one-member and full sets get a prompt of their own. Returns each
    prompt's set indices ascending, prompts ordered by their first set. Each
    small set costs one scan of the prompts opened so far, which is cheap at
    the round sizes measured (at most 601 small sets in a round of 10,000
    records); a round of one block, whose sets can share nothing, is
    returned at once.
    """
    if len(set(blocks)) < 2:
        return [[k] for k in range(len(sizes))]
    small = sorted(
        (k for k, n in enumerate(sizes) if 2 <= n < set_size),
        key=lambda k: (-sizes[k], k),
    )
    bins: list[list[int]] = []
    room: list[int] = []
    held: list[set] = []
    for k in small:
        size, block = sizes[k], blocks[k]
        fit = next(
            (b for b, r in enumerate(room) if r >= size and block not in held[b]),
            len(bins),
        )
        if fit == len(bins):
            bins.append([])
            room.append(set_size)
            held.append(set())
        bins[fit].append(k)
        held[fit].add(block)
        room[fit] -= size
    shared = {k for group in bins for k in group}
    prompts = [sorted(group) for group in bins]
    prompts += [[k] for k in range(len(sizes)) if k not in shared]
    return sorted(prompts)


def share_prompt(record_sets: Sequence[RecordSet]) -> RecordSet:
    """The record set of one prompt shared by ``record_sets``: their members
    in order, under their set ids joined by "+" (one set keeps its own)."""
    return RecordSet(
        "+".join(rs.set_id for rs in record_sets),
        tuple(node for rs in record_sets for node in rs.members),
    )


def split_clustering(
    clustering: SetClustering, prompt: RecordSet, record_sets: Sequence[RecordSet]
) -> list[SetClustering]:
    """Each set's clustering cut from a clustering of the prompt they shared
    (share_prompt). Members are found by node, since regeneration may have
    reordered the prompt and interleaved its sets: every group restricted to
    the set's members, in the group's order, at their positions in the set,
    groups left empty dropped, so a group that spans two sets is never
    applied across them. The flags are kept, so a fallback reply falls back
    for every set it held."""
    where = {
        node.representative: (k, pos)
        for k, rs in enumerate(record_sets)
        for pos, node in enumerate(rs.members)
    }
    groups: list[list[tuple[int, ...]]] = [[] for _ in record_sets]
    for group in clustering.groups:
        parts: dict[int, list[int]] = {}
        for p in group:
            k, pos = where[prompt.members[p].representative]
            parts.setdefault(k, []).append(pos)
        for k, part in parts.items():
            groups[k].append(tuple(part))
    return [
        SetClustering(rs.set_id, tuple(g), clustering.flags)
        for rs, g in zip(record_sets, groups)
    ]


def _advance(step: Generator, answered: list | None = None) -> list | None:
    """Send a block's step its round's answers; its next round's sets, or
    None once the block is resolved."""
    try:
        return step.send(answered)
    except StopIteration:
        return None


def _check_blocks(blocks: Sequence[Block], records: dict[str, Record]) -> None:
    block_ids: set[str] = set()
    placed: set[str] = set()
    for block in blocks:
        if block.block_id in block_ids:
            raise ValueError(f"block id {block.block_id!r} is repeated")
        block_ids.add(block.block_id)
        for rid in block.members:
            if rid not in records:
                raise ValueError(f"unknown record {rid!r} in block {block.block_id!r}")
            if rid in placed:
                raise ValueError(f"record {rid!r} is in two blocks or twice in one")
            placed.add(rid)


@dataclass
class ResolveReport:
    """Counters of one resolve(). ``level_set_counts[k]`` counts the record
    sets of level k over all blocks and ``final_check_sets`` the sweep's:
    both count sets, not calls. A one-record set costs no call, and sets of
    different blocks may share one (Resolver._round); the ledger counts
    calls. The guardrail checks each prompt, so its counts count prompts.
    ``final_check_rounds`` is the most sweep waves any block took."""

    blocks: int = 0
    level_set_counts: list[int] = field(default_factory=list)
    final_check_sets: int = 0
    final_check_rounds: int = 0
    # seconds resolve() took; ledger["wall_time"] sums the calls' latencies,
    # which exceeds this whenever calls overlap
    elapsed_s: float = 0.0
    guardrail: GuardrailStats = field(default_factory=GuardrailStats)
    ledger: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = asdict(self)
        guardrail, ledger = out.pop("guardrail"), out.pop("ledger")
        return {**out, **guardrail, "ledger": ledger}


class Resolver:
    """End-to-end driver: per-block record-set hierarchies over a shared
    constraint store, advanced together one round across blocks at a time.
    Within a round, up to ``parallelism`` backend calls are in flight at
    once; everything else, the guardrail included, runs on the thread that
    called resolve() (see _round). Each block's hierarchy stops on evidence,
    never on a level count (see _resolve_block).

    The similarity index is built from ``sim_config`` and ``embeddings``, or
    passed prebuilt as ``index``, which must cover ``records``. Giving both,
    an index without some record, or a ``parallelism`` below 1, is a
    ValueError."""

    # read only by bench/run.py, for its engine.blocks_at_max_levels metric;
    # the bench change of ROADMAP item 1 drops it
    max_levels = 50

    def __init__(
        self,
        records: dict[str, Record],
        backend,
        config: SetConfig | None = None,
        sim_config: SimilarityConfig | None = None,
        embeddings: dict[str, np.ndarray] | None = None,
        parallelism: int = 1,
        ledger: CostLedger | None = None,
        index: SimilarityIndex | None = None,
    ):
        if index is not None and (sim_config is not None or embeddings is not None):
            raise ValueError("pass either a prebuilt index or sim_config/embeddings")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.records = records
        self.config = config or SetConfig()
        if index is None:
            index = SimilarityIndex(records, sim_config, embeddings)
        missing = [rid for rid in records if rid not in index.embeddings]
        if missing:
            raise ValueError(f"the similarity index has no record {missing[0]!r}")
        self.index = index
        self.ledger = ledger if ledger is not None else CostLedger()
        self.gateway = LlmGateway(backend, records, ledger=self.ledger)
        self.parallelism = parallelism
        self.store = ConstraintStore(sorted(records))
        self.report = ResolveReport()
        # the level-0 matrices of blocks that fit one set, until drawn
        self._level0: dict[str, np.ndarray] = {}
        self._resolved = False

    def _round(
        self, steps: list[list[tuple[RecordSet, np.ndarray]]]
    ) -> list[list[tuple[RecordSet, SetClustering]]]:
        """One round across blocks: ``steps`` holds each live block's sets,
        each with its similarity matrix. Returns each block's sets, as given,
        with their clusterings, once all of them are folded into the store in
        the order the sets were given; a caller rebuilds its level's nodes
        from them with _nodes.

        The round's sets are packed into prompts once (pack_sets): sets
        smaller than one prompt, of different blocks, share a call. A prompt
        of one set is that set with its matrix; a shared prompt is
        share_prompt of its sets, with its representatives' similarities, all
        shared prompts' read stacked (SimilarityIndex.group_sims), so the
        guardrail (guarded_cluster) judges the clustering of the records the
        backend was shown. Each set's clustering is then
        cut from its prompt's (split_clustering), so a group that spans two
        blocks is never applied, as blocking presumes.

        Only the backend calls run concurrently. With ``parallelism`` above 1,
        a wave of more than one prompt is mapped through a pool of
        ``parallelism`` threads, so at most that many calls are in flight;
        the guardrail (check, repair, regeneration) runs on the calling
        thread, on each prompt as its reply arrives, in prompt order, and so
        does the fold. The pool lives for one round."""
        given = [item for step in steps for item in step]
        packed = pack_sets(
            [len(rs) for rs, _ in given],
            [b for b, step in enumerate(steps) for _ in step],
            self.config.set_size,
        )
        prompts = [given[prompt[0]] for prompt in packed]
        shared = [
            (p, share_prompt([given[k][0] for k in prompt]))
            for p, prompt in enumerate(packed)
            if len(prompt) > 1
        ]
        reads = self.index.group_sims(
            [node.representative for node in rs.members] for _, rs in shared
        )
        for (p, rs), sims in zip(shared, reads):
            prompts[p] = (rs, sims)
        cluster = self.gateway.cluster_records
        threaded = self.parallelism > 1 and len(prompts) > 1
        with ThreadPoolExecutor(self.parallelism) if threaded else nullcontext() as pool:

            def ask(record_sets: list[RecordSet]) -> Iterable[SetClustering]:
                if pool is None or len(record_sets) == 1:
                    return map(cluster, record_sets)
                return pool.map(cluster, record_sets)

            guarded, stats = guarded_cluster(prompts, ask, self.config.max_regen)
        self.report.guardrail.add(stats)
        answered: list = [None] * len(given)
        for prompt, (shared, clustering) in zip(packed, guarded):
            sets = [given[k][0] for k in prompt]
            for k, cut in zip(prompt, split_clustering(clustering, shared, sets)):
                answered[k] = (given[k][0], cut)
        for record_set, clustering in answered:
            self.report.guardrail.conflict_warnings += apply_clustering(
                self.store, record_set, clustering
            )
        out, start = [], 0
        for step in steps:
            out.append(answered[start : start + len(step)])
            start += len(step)
        return out

    def _nodes(self, nodes, answered=()) -> list[ClusterNode]:
        """One node per entity among ``nodes``, as the constraint store knows
        it, in order of first appearance. Its origin set is the ``answered``
        set (see _round) that held its first node, or else that node's own.
        An entity held by one of the nodes keeps its members and
        representative, and is that node itself if its origin is unchanged;
        the representatives of the others are computed from their members,
        in one call (SimilarityIndex.representatives).

        A merge round's sets are disjoint, and a reply only joins nodes of
        its own set, so rebuilding after the whole round is folded in gives
        each set's nodes as they were right after its own reply."""
        held = {n.representative: rs.set_id for rs, _ in answered for n in rs.members}
        groups: dict[str, list[ClusterNode]] = {}
        for node in nodes:
            groups.setdefault(self.store.root(node.representative), []).append(node)
        joined = {
            k: frozenset().union(*(node.members for node in group))
            for k, group in enumerate(groups.values())
            if len(group) > 1
        }
        elected = dict(zip(joined, self.index.representatives(joined.values())))
        out = []
        for k, (first, *rest) in enumerate(groups.values()):
            origin = held.get(first.representative, first.origin_set)
            if rest:
                first = ClusterNode(joined[k], elected[k], origin)
            elif origin != first.origin_set:
                first = replace(first, origin_set=origin)
            out.append(first)
        return out

    def _count_level(self, level: int, n_sets: int) -> None:
        counts = self.report.level_set_counts
        counts.extend([0] * (level + 1 - len(counts)))
        counts[level] += n_sets

    def _level0_sets(self, block: Block) -> list[tuple[RecordSet, np.ndarray]]:
        """Draw the block's level-0 sets, each with the similarity matrix of
        its records in set order (next_record_set), from one pre-clustering
        of the whole block; a block that fits one set needs none, and its
        matrix, read by resolve() with every such block's, is taken here and
        dropped."""
        remaining = set(block.members)
        held = self._level0.pop(block.block_id, None)
        cluster_of = (
            pre_clusters(remaining, self.config, self.index)
            if len(remaining) > self.config.set_size
            else None
        )
        sets: list[tuple[RecordSet, np.ndarray]] = []
        while remaining:
            ids, sims = next_record_set(
                remaining, self.config, self.index, cluster_of, len(sets), held
            )
            remaining.difference_update(ids)
            record_set = RecordSet(
                f"{block.block_id}.L0.{len(sets):04d}",
                tuple(ClusterNode.singleton(rid) for rid in ids),
            )
            sets.append((record_set, sims))
        return sets

    def _resolve_block(self, block: Block) -> Generator[list, list, None]:
        """The block's rounds, as a generator: it yields each round's sets,
        each with its similarity matrix, and is sent back those sets with
        their clusterings (see _round), once that round is folded into the
        store. resolve() runs the rounds of all blocks together.

        A one-record block is one level-0 set that is never asked: it is
        counted and ends there. A block drawn as one level-0 set ends on a
        reply that did not fall back, which settles every pair in the set.

        After level 0, each round reads the level once (see _level), asks its
        groups and rebuilds its nodes (_nodes). While merging, the groups are
        merge_round's sets that hold an open pair (see open_pairs), named by
        their index in the round (``<block>.L<k>.<i>``). Merging stops on a
        level that packs no such set, or after a round that merged no two
        clusters, as one whose replies all fell back: the sweep covers the
        open pairs left with fewer calls. Then each round is a sweep wave of
        final_check's sets, numbered on across waves (``<block>.F.<i>``),
        until no open pair is left or a wave's replies all fell back.

        So the block stops by proof, not by a level cap. Every asked set
        holds an open pair and a reply that did not fall back settles every
        pair in its set, so a round lowers the block's count of unsettled
        pairs (distinct roots, no cannot-link) unless all its replies fell
        back, and such a round ends merging or the sweep: a block of n
        records takes at most C(n, 2) + 3 rounds, level 0 included.
        """
        if len(block) == 1:
            self._count_level(0, 1)
            return
        sets = self._level0_sets(block)
        self._count_level(0, len(sets))
        answered = yield sets
        if len(answered) == 1 and not _is_fallback(answered[0][1]):
            return
        nodes = self._nodes([n for rs, _ in answered for n in rs.members], answered)

        merging = True
        level = wave = swept = 0
        while len(nodes) >= 2:
            nodes, sims, open_ = self._level(nodes)
            if merging:
                labels = [node.origin_set or "" for node in nodes]
                origin = np.unique(labels, return_inverse=True)[1]
                groups = merge_round(origin, sims, self.config.set_size, open_)
                asked = [k for k, g in enumerate(groups) if open_[np.ix_(g, g)].any()]
                merging = bool(asked)
            if merging:
                level += 1
                self._count_level(level, len(asked))
                ids = [f"{block.block_id}.L{level}.{k:04d}" for k in asked]
                groups = [groups[k] for k in asked]
            else:
                groups = final_check(open_, self.config.set_size)
                if not groups:
                    break
                wave += 1
                ids = [f"{block.block_id}.F.{swept + k:04d}" for k in range(len(groups))]
                swept += len(groups)
                self.report.final_check_sets += len(groups)
                self.report.final_check_rounds = max(self.report.final_check_rounds, wave)
            before = len(nodes)
            answered = yield [
                (RecordSet(i, tuple(nodes[k] for k in g)), sims[np.ix_(g, g)])
                for i, g in zip(ids, groups)
            ]
            nodes = self._nodes(nodes, answered)
            if merging:
                merging = len(nodes) < before
            elif _all_fell_back(answered):
                break

    def _level(
        self, nodes: list[ClusterNode]
    ) -> tuple[list[ClusterNode], np.ndarray, np.ndarray]:
        """One read of a level: its nodes in representative order, their
        similarity matrix and their open pairs (see open_pairs)."""
        nodes = sorted(nodes, key=lambda node: node.representative)
        sims = self.index.sims(node.representative for node in nodes)
        return nodes, sims, open_pairs(nodes, self.store, self.config, sims)

    def resolve(self, blocks: list[Block]) -> tuple[Partition, CostLedger, ResolveReport]:
        """Resolve every block; ``report.blocks`` counts the blocks given.
        The blocks' hierarchies advance together: each round asks the
        current sets of every block still going, in block order, through one
        _round, so sets of different blocks smaller than one prompt share
        calls, a small block's level-0 set among them. The level-0 matrices
        of all blocks of 2 to set_size records are read first, in one stacked
        read (SimilarityIndex.group_sims). A block of one
        record, or one drawn as a single level-0 set whose reply did not
        fall back, ends without a merge round or sweep (see
        _resolve_block). ``report.elapsed_s`` is the time this call took. A
        Resolver resolves once: its store, report and ledger hold that run,
        so a second call is a RuntimeError. A record in two blocks (or twice
        in one), an id not in ``records`` or a repeated block id is a
        ValueError, raised before any call."""
        _check_blocks(blocks, self.records)
        if self._resolved:
            raise RuntimeError(
                "this Resolver has already resolved: its constraint store, report "
                "and ledger hold that run; build a new Resolver"
            )
        self._resolved = True
        start = time.monotonic()
        self.report.blocks = len(blocks)
        fits = [b for b in blocks if 2 <= len(b) <= self.config.set_size]
        self._level0 = dict(
            zip(
                (b.block_id for b in fits),
                self.index.group_sims(sorted(b.members) for b in fits),
            )
        )
        steps = map(self._resolve_block, blocks)
        live = [(step, sets) for step in steps if (sets := _advance(step))]
        while live:
            answered = self._round([sets for _, sets in live])
            live = [
                (step, sets)
                for (step, _), done in zip(live, answered)
                if (sets := _advance(step, done))
            ]
        entities = list(self.store.components().values())
        partition = Partition([
            ClusterNode(frozenset(members), representative)
            for members, representative in zip(
                entities, self.index.representatives(entities)
            )
        ])
        partition.validate(self.records)
        self.report.ledger = self.ledger.snapshot()
        self.report.elapsed_s = time.monotonic() - start
        return partition, self.ledger, self.report
