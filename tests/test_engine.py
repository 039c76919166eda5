import hashlib
import itertools
import math
import random
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erset import engine, setbuilder, similarity
from erset.blocking import Block, BlockingParams, make_blocks
from erset.engine import (
    Resolver,
    apply_clustering,
    final_check,
    guarded_cluster,
    mdg_check,
    merge_round,
    open_pairs,
    pack_sets,
    regenerate_set,
    repair_clustering,
    share_prompt,
    split_clustering,
)
from erset.gateway import (
    MAX_RETRIES,
    LlmGateway,
    OracleConfig,
    ProviderUnavailable,
    SimulatedOracle,
)
from erset.model import (
    Attribute,
    ClusterNode,
    ConstraintStore,
    CostLedger,
    Record,
    RecordSet,
    SetClustering,
    SetConfig,
)
from erset.similarity import SimilarityConfig, SimilarityIndex
from erset.synth import generate_dataset, planted_embeddings

from .fakes import ReferenceStore, TableIndex, embedding_index


def _sims(rs, table):
    return _rep_sims(TableIndex(table), rs.members)


def _rep_sims(index, nodes):
    """The similarity matrix of the nodes' representatives, in node order."""
    return index.sims(n.representative for n in nodes)


def _in_rep_order(nodes, index):
    """The nodes in representative order and their similarity matrix: one
    read of a level, as the Resolver makes it."""
    nodes = sorted(nodes, key=lambda n: n.representative)
    return nodes, _rep_sims(index, nodes)


def _named(prefix, nodes, groups, start=0):
    """Each group of node indices as a record set, numbered as the Resolver
    numbers them."""
    return [
        RecordSet(f"{prefix}.{start + k:04d}", tuple(nodes[i] for i in g))
        for k, g in enumerate(groups)
    ]


def _merge_sets(nodes, config, index, prefix="L1", store=None):
    """merge_round over the nodes and their open pairs in ``store`` (by
    default a store that knows nothing), its groups as record sets."""
    nodes, sims = _in_rep_order(nodes, index)
    if store is None:
        store = ConstraintStore(r for n in nodes for r in sorted(n.members))
    origin = np.unique([n.origin_set or "" for n in nodes], return_inverse=True)[1]
    open_ = open_pairs(nodes, store, config, sims)
    return _named(prefix, nodes, merge_round(origin, sims, config.set_size, open_))


def _sweep_sets(nodes, store, config, index, prefix="F", start=0):
    """final_check over the nodes' open pairs, its groups as record sets."""
    nodes, sims = _in_rep_order(nodes, index)
    open_ = open_pairs(nodes, store, config, sims)
    return _named(prefix, nodes, final_check(open_, config.set_size), start)


def _set_of(ids, set_id="s0", origin=None):
    return RecordSet(
        set_id, tuple(ClusterNode.singleton(i, origin_set=origin) for i in ids)
    )


ABC_SIMS = {("a", "b"): 0.2, ("a", "c"): 0.5, ("b", "c"): 0.1}


class TestMdgCheck:
    def test_all_singletons_pass(self):
        rs = _set_of("abc")
        c = SetClustering("s0", ((0,), (1,), (2,)))
        assert mdg_check(c, _sims(rs, ABC_SIMS))

    def test_single_group_passes(self):
        rs = _set_of("abc")
        c = SetClustering("s0", ((0, 1, 2),))
        assert mdg_check(c, _sims(rs, ABC_SIMS))

    def test_misclustered_detected(self):
        rs = _set_of("abc")
        c = SetClustering("s0", ((0, 1), (2,)))
        # intra(a) = sim(a,b) = 0.2 < inter(a) = sim(a,c) = 0.5
        assert not mdg_check(c, _sims(rs, ABC_SIMS))


class TestRegenerateSet:
    def test_fixpoint_when_clean(self):
        rs = _set_of("abc")
        c = SetClustering("s0", ((0,), (1,), (2,)))
        out, _ = regenerate_set(rs, c, _sims(rs, ABC_SIMS))
        assert out.members == rs.members

    def test_relocates_after_target_group(self):
        rs = _set_of("abc")
        c = SetClustering("s0", ((0, 1), (2,)))
        out, _ = regenerate_set(rs, c, _sims(rs, ABC_SIMS))
        assert [n.representative for n in out.members] == ["b", "c", "a"]

    def test_two_misclustered_sequential(self):
        # order [a,b,c,d]; groups {a,c},{b,d}; exactly a and b misclustered
        sims = {
            ("a", "b"): 0.9,
            ("a", "c"): 0.5,
            ("a", "d"): 0.0,
            ("b", "c"): 0.4,
            ("b", "d"): 0.2,
            ("c", "d"): 0.1,
        }
        rs = _set_of("abcd")
        c = SetClustering("s0", ((0, 2), (1, 3)))
        out, _ = regenerate_set(rs, c, _sims(rs, sims))
        # a moves after its most similar group {b,d} -> after d, giving
        # [b,c,d,a]; then b moves after {a,c}'s last member a -> [c,d,a,b]
        assert [n.representative for n in out.members] == ["c", "d", "a", "b"]

    def test_preserves_multiset(self):
        rs = _set_of("abc")
        c = SetClustering("s0", ((0, 1), (2,)))
        out, _ = regenerate_set(rs, c, _sims(rs, ABC_SIMS))
        assert sorted(n.representative for n in out.members) == ["a", "b", "c"]

    def test_matrix_follows_the_reordered_set(self):
        """The returned matrix is the one a fresh read of the reordered set
        gives, entry for entry."""
        emb = planted_embeddings(
            {f"r{k:02d}": f"e{k % 3}" for k in range(9)}, noise=0.3, seed=4
        )
        index = embedding_index(emb)
        rs = _set_of(sorted(emb))
        sims = _rep_sims(index, rs.members)
        c = SetClustering("s0", ((0, 3, 6, 1), (4, 7, 2), (5, 8)))
        assert not mdg_check(c, sims)
        out, permuted = regenerate_set(rs, c, sims)
        assert out.members != rs.members
        assert np.array_equal(permuted, _rep_sims(index, out.members))


class _ScriptedBackend:
    def __init__(self, texts):
        self.texts = iter(texts)

    def complete(self, prompt, record_sets):
        return next(self.texts), None


def _gateway(texts, ids="abc"):
    records = {
        x: Record(x, (Attribute("name", f"thing {x}"),)) for x in ids
    }
    return LlmGateway(_ScriptedBackend(texts), records, ledger=CostLedger())


# {a,b,d},{c} fails the check (a: intra -0.5 < inter 0.6) and no single move
# repairs it: moving a to c, or out on its own, leaves d misclustered
# (intra 0.1 < inter 0.3), and every other move keeps a misclustered.
STUCK_SIMS = {
    ("a", "b"): -0.5,
    ("a", "c"): 0.6,
    ("a", "d"): 0.3,
    ("b", "c"): -0.5,
    ("b", "d"): 0.1,
    ("c", "d"): -0.5,
}


class TestRepairClustering:
    def test_moves_misclustered_record(self):
        rs = _set_of("abc")
        sims = _sims(rs, ABC_SIMS)
        out = repair_clustering(SetClustering("s0", ((0, 1), (2,))), sims)
        assert out.groups == ((0, 2), (1,))
        out.validate(rs)
        assert mdg_check(out, sims)

    def test_none_when_no_move_improves(self):
        rs = _set_of("abcd")
        sims = _sims(rs, STUCK_SIMS)
        assert repair_clustering(SetClustering("s0", ((0, 1, 3), (2,))), sims) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_matches_the_loop_reference(self, n, k, seed):
        """Similarities in 0.1 steps, so tied moves are common: the same
        result as the loop that builds one candidate per move."""
        rng = np.random.default_rng(seed)
        sims = np.triu(rng.integers(0, 11, (n, n)) / 10, 1)
        sims = sims + sims.T + np.eye(n)
        labels = rng.integers(0, k, n)
        groups = tuple(
            tuple(int(p) for p in np.flatnonzero(labels == g)) for g in np.unique(labels)
        )
        clustering = SetClustering("s0", groups)
        assert repair_clustering(clustering, sims) == _reference_repair(clustering, sims)


def _reference_repair(clustering, sims):
    """repair_clustering as a loop over the moves, one labels copy each: the
    reference for its array code."""
    labels = np.empty(len(sims), dtype=int)
    for gi, group in enumerate(clustering.groups):
        labels[list(group)] = gi
    bad = int(engine._misclustered_mask(labels[None, :], sims).sum())
    while bad:
        groups = np.unique(labels)
        fresh = groups[-1] + 1
        moves = []
        for pos, own in enumerate(labels):
            targets = [g for g in groups if g != own]
            if np.count_nonzero(labels == own) > 1:
                targets.append(fresh)
            for target in targets:
                moved = labels.copy()
                moved[pos] = target
                moves.append(moved)
        candidates = np.array(moves)
        counts = engine._misclustered_mask(candidates, sims).sum(axis=1)
        best = int(np.argmin(counts))
        if counts[best] >= bad:
            return None
        labels, bad = candidates[best], int(counts[best])
    members = {}
    for pos, label in enumerate(labels.tolist()):
        members.setdefault(label, []).append(pos)
    return SetClustering(clustering.source, tuple(tuple(g) for g in members.values()))


def _guard_one(record_set, sims, gateway, max_regen):
    """guarded_cluster over a round of one set, asked on this thread."""
    [(out_rs, clustering)], stats = guarded_cluster(
        [(record_set, sims)], lambda sets: map(gateway.cluster_records, sets), max_regen
    )
    return out_rs, clustering, stats


class TestGuardedCluster:
    def test_pass_first_time_one_call(self):
        gateway = _gateway(["R1\nR2\nR3"])
        rs = _set_of("abc")
        out_rs, clustering, stats = _guard_one(
            rs, _sims(rs, ABC_SIMS), gateway, max_regen=2
        )
        assert gateway.ledger.api_calls == 1
        assert stats.checks_failed == 0

    def test_fail_once_then_pass_two_calls(self):
        # first response groups {a,b,d},{c}, which fails and cannot be
        # repaired; a moves after c, and the reply on the reordered
        # [b,c,a,d] groups {b},{c,a},{d} (passes)
        gateway = _gateway(["R1,R2,R4\nR3", "R1\nR2,R3\nR4"], "abcd")
        rs = _set_of("abcd")
        out_rs, clustering, stats = _guard_one(
            rs, _sims(rs, STUCK_SIMS), gateway, max_regen=2
        )
        assert gateway.ledger.api_calls == 2
        assert stats.regenerations == 1
        assert stats.exhausted == 0
        assert "guardrail-exhausted" not in clustering.flags
        assert [n.representative for n in out_rs.members] == ["b", "c", "a", "d"]

    def test_exhaustion_flags_last_clustering(self):
        # each reply groups {a,b,d},{c} in the set order it is given
        # ([a,b,c,d], then [b,c,a,d] twice), which fails and cannot be repaired
        bad = ["R1,R2,R4\nR3", "R1,R3,R4\nR2", "R1,R3,R4\nR2"]
        gateway = _gateway(bad, "abcd")
        rs = _set_of("abcd")
        _, clustering, stats = _guard_one(
            rs, _sims(rs, STUCK_SIMS), gateway, max_regen=2
        )
        assert gateway.ledger.api_calls == 3
        assert stats.exhausted == 1
        assert "guardrail-exhausted" in clustering.flags

    def test_repair_settles_without_a_call(self):
        # {a,b},{c} fails; moving a to c gives {a,c},{b}, which passes
        gateway = _gateway(["R1,R2\nR3"])
        rs = _set_of("abc")
        out_rs, clustering, stats = _guard_one(
            rs, _sims(rs, ABC_SIMS), gateway, max_regen=2
        )
        assert gateway.ledger.api_calls == 1
        assert stats.regenerations == 0
        assert stats.checks_failed == stats.repaired == 1
        assert out_rs.members == rs.members
        assert sorted(clustering.groups) == [(0, 2), (1,)]
        assert "guardrail-repaired" in clustering.flags

    def test_one_member_set_costs_no_call(self):
        gateway = _gateway([])
        rs = _set_of("a")
        out_rs, clustering, stats = _guard_one(rs, None, gateway, max_regen=2)
        assert gateway.ledger.api_calls == 0
        assert out_rs is rs
        assert clustering.groups == ((0,),) and not clustering.flags
        assert stats == type(stats)()

    def test_fallback_is_not_checked(self):
        # a reply that never parses falls back to singletons; with these
        # similarities {a},{b},{c} would not pass the check (a-b above 1.0)
        gateway = _gateway(["?"] * (MAX_RETRIES + 1))
        rs = _set_of("abc")
        sims = {("a", "b"): 1.5, ("a", "c"): 0.5, ("b", "c"): 0.1}
        _, clustering, stats = _guard_one(
            rs, _sims(rs, sims), gateway, max_regen=2
        )
        assert gateway.ledger.api_calls == MAX_RETRIES + 1
        assert clustering.flags == ("fallback-singletons",)
        assert stats.fallbacks == 1
        assert stats.checks_failed == 0

    def test_no_remedy_without_regenerations(self):
        gateway = _gateway(["R1,R2\nR3"])
        rs = _set_of("abc")
        _, clustering, stats = _guard_one(
            rs, _sims(rs, ABC_SIMS), gateway, max_regen=0
        )
        assert gateway.ledger.api_calls == 1
        assert stats.repaired == 0
        assert stats.exhausted == 1
        assert clustering.groups == ((0, 1), (2,))

    def test_regenerated_sets_are_asked_in_the_next_wave(self):
        """A round's replies are checked in set order; a set that must be
        regenerated is asked again, under its own id, in the round's next
        wave, and a one-member set is never asked."""
        # s0 = [a,b,c,d] fails beyond repair, s1 = [a,b,c] passes; then the
        # reordered s0 = [b,c,a,d] is asked alone and passes
        gateway = _gateway(["R1,R2,R4\nR3", "R1\nR2\nR3", "R1\nR2,R3\nR4"], "abcd")
        s0, s1, s2 = _set_of("abcd"), _set_of("abc", "s1"), _set_of("a", "s2")
        waves = []

        def ask(record_sets):
            waves.append([rs.set_id for rs in record_sets])
            return map(gateway.cluster_records, record_sets)

        answered, stats = guarded_cluster(
            [
                (s0, _sims(s0, STUCK_SIMS)),
                (s1, _sims(s1, ABC_SIMS)),
                (s2, _sims(s2, ABC_SIMS)),
            ],
            ask,
            max_regen=2,
        )
        assert waves == [["s0", "s1"], ["s0"]]
        assert [rs.set_id for rs, _ in answered] == ["s0", "s1", "s2"]
        assert [n.representative for n in answered[0][0].members] == ["b", "c", "a", "d"]
        assert answered[0][1].groups == ((0,), (1, 2), (3,))
        assert answered[1][0] is s1 and answered[2][0] is s2
        assert answered[2][1].groups == ((0,),)
        assert (stats.checks_failed, stats.regenerations, stats.exhausted) == (1, 1, 0)
        assert gateway.ledger.api_calls == 3


class TestApplyClustering:
    def test_separate_groups_get_cannot_link(self):
        store = ConstraintStore(["a", "b"])
        warnings = apply_clustering(
            store, _set_of("ab"), SetClustering("s0", ((0,), (1,)))
        )
        assert store.cannot_link("a", "b")
        assert not store.same_entity("a", "b")
        assert warnings == 0

    def test_group_merges(self):
        store = ConstraintStore(["a", "b", "c"])
        warnings = apply_clustering(
            store, _set_of("abc"), SetClustering("s0", ((0, 1), (2,)))
        )
        assert store.same_entity("a", "b")
        assert store.cannot_link("a", "c") and store.cannot_link("b", "c")
        assert warnings == 0

    def test_fallback_adds_no_cannot_links(self):
        store = ConstraintStore(["a", "b", "c"])
        fallback = SetClustering("s0", ((0,), (1,), (2,)), ("fallback-singletons",))
        warnings = apply_clustering(store, _set_of("abc"), fallback)
        assert not store.has_cannot_links("abc")
        assert len(store.components()) == 3
        assert warnings == 0

    def test_single_member_set_adds_nothing(self):
        store = ConstraintStore(["a"])
        warnings = apply_clustering(store, _set_of("a"), SetClustering("s0", ((0,),)))
        assert not store.has_cannot_links("a")
        assert warnings == 0

    def test_conflicting_group_split_with_warning(self):
        store = ConstraintStore(["a", "b", "c"])
        store.add_cannot_link("a", "b")
        warnings = apply_clustering(
            store, _set_of("abc"), SetClustering("s0", ((0, 1, 2),))
        )
        assert warnings == 1
        # earlier evidence wins: a and b stay apart, c joins the first of them
        assert not store.same_entity("a", "b")
        assert store.same_entity("a", "c")
        assert store.cannot_link("b", "c")

    def test_link_between_one_entity_is_a_warning(self):
        """Two nodes of one entity answered apart: no cannot-link is added
        inside the entity, and the contradiction is counted."""
        store = ConstraintStore(["a", "b"])
        store.merge("a", "b")
        warnings = apply_clustering(
            store, _set_of("ab"), SetClustering("s0", ((0,), (1,)))
        )
        assert store.same_entity("a", "b")
        assert not store.cannot_link("a", "b")
        assert warnings == 1


class TestNodes:
    def _resolver(self, ids):
        records = {i: Record(i, (Attribute("name", f"item {i}"),)) for i in ids}
        return Resolver(records, backend=None)

    def test_unchanged_nodes_keep_their_representative(self):
        """After an all-singletons reply over multi-record nodes, each node is
        still a whole entity: no representative is computed again, and every
        node takes the set as its origin."""
        ids = [f"{side}{i}" for side in "abc" for i in range(3)]
        resolver = self._resolver(ids)
        store = resolver.store
        for k in (0, 3, 6):
            store.merge(ids[k], ids[k + 1])
            store.merge(ids[k], ids[k + 2])
        rs = RecordSet(
            "s1",
            tuple(
                ClusterNode(frozenset(ids[k : k + 3]), ids[k + 1], "s0")
                for k in (0, 3, 6)
            ),
        )
        asked = []
        representatives = resolver.index.representatives

        def counting(groups):
            groups = [sorted(g) for g in groups]
            asked.extend(groups)
            return representatives(groups)

        resolver.index.representatives = counting
        apart = SetClustering("s1", ((0,), (1,), (2,)))
        apply_clustering(store, rs, apart)
        nodes = resolver._nodes(rs.members, [(rs, apart)])
        assert asked == []
        assert [(n.members, n.representative) for n in nodes] == [
            (n.members, n.representative) for n in rs.members
        ]
        assert {n.origin_set for n in nodes} == {"s1"}
        # (0, 1) contradicts the cannot-link: split back, nothing merges
        joined = SetClustering("s1", ((0, 1), (2,)))
        apply_clustering(store, rs, joined)
        assert len(resolver._nodes(rs.members, [(rs, joined)])) == 3
        assert asked == []

    def test_merged_nodes_become_one_node(self):
        """Nodes the store has joined become one node over their members, in
        order of first appearance, with the representative of those members."""
        ids = ["a", "b", "c", "d"]
        resolver = self._resolver(ids)
        resolver.store.merge("a", "c")
        level = [ClusterNode.singleton(rid, "s0") for rid in ["c", "b", "a", "d"]]
        rs = RecordSet("s1", tuple(level))
        nodes = resolver._nodes(level, [(rs, SetClustering("s1", ((0, 2), (1,), (3,))))])
        assert [n.members for n in nodes] == [
            frozenset("ac"), frozenset("b"), frozenset("d")
        ]
        assert nodes[0].representative == resolver.index.representative("ac")
        assert {n.origin_set for n in nodes} == {"s1"}
        # with no answered set, a node keeps its origin: a lone one is itself
        again = resolver._nodes(nodes)
        assert [n.origin_set for n in again] == ["s1"] * 3
        assert all(a is b for a, b in zip(again, nodes))

    def test_only_merged_entities_are_elected(self):
        """A rebuild asks representatives() for the entities it merged and
        for no other: a node whose entity is unchanged keeps its
        representative without it being computed again."""
        ids = ["a", "b", "c", "d"]
        resolver = self._resolver(ids)
        asked = []
        representatives = resolver.index.representatives

        def electing(groups):
            groups = [sorted(g) for g in groups]
            asked.extend(groups)
            return representatives(groups)

        resolver.index.representatives = electing
        level = [ClusterNode.singleton(rid, "s0") for rid in ["c", "b", "a", "d"]]
        rs = RecordSet("s1", tuple(level))
        clustering = SetClustering("s1", ((0, 2), (1,), (3,)))
        apply_clustering(resolver.store, rs, clustering)
        nodes = resolver._nodes(level, [(rs, clustering)])
        assert asked == [["a", "c"]]
        assert resolver._nodes(nodes) == nodes
        assert asked == [["a", "c"]]

    def test_only_answered_nodes_take_a_new_origin(self):
        """A level rebuilt after a round: each node held by an answered set
        takes that set as its origin, merged or not, and every other node
        keeps its own, as the same object."""
        ids = ["a", "b", "c", "d", "e"]
        resolver = self._resolver(ids)
        level = [ClusterNode.singleton(rid, f"s{rid}") for rid in ids]
        rs = RecordSet("t", (level[0], level[1], level[2]))
        clustering = SetClustering("t", ((0, 1), (2,)))
        apply_clustering(resolver.store, rs, clustering)
        nodes = resolver._nodes(level, [(rs, clustering)])
        assert [(sorted(n.members), n.origin_set) for n in nodes] == [
            (["a", "b"], "t"), (["c"], "t"), (["d"], "sd"), (["e"], "se")
        ]
        assert nodes[1] is not level[2] and nodes[1].representative == "c"
        assert nodes[2] is level[3] and nodes[3] is level[4]


class TestMergeRound:
    def test_figure_style_chaining(self):
        """4 origin sets x 3 entity clusters, diversity 1: three next-round
        sets, each holding one cluster per origin set matched by similarity."""
        ids, nodes, entity = [], [], {}
        for s in range(4):
            for e in "xyz":
                rid = f"{e}{s}"
                ids.append(rid)
                entity[rid] = e
                nodes.append(ClusterNode.singleton(rid, origin_set=f"s{s}"))

        sims = {
            (a, b): 0.9 if entity[a] == entity[b] else 0.1
            for a, b in itertools.combinations(sorted(ids), 2)
        }
        out = _merge_sets(nodes, SetConfig(set_diversity=1), TableIndex(sims))
        assert len(out) == 3
        for rs in out:
            assert len(rs) == 4
            assert len({entity[n.representative] for n in rs.members}) == 1
            assert len({n.origin_set for n in rs.members}) == 4

    def test_greedy_most_similar_matching(self):
        sims = {
            ("a1", "b1"): 0.1,
            ("a1", "b2"): 0.9,
            ("a2", "b1"): 0.8,
            ("a2", "b2"): 0.2,
            ("a1", "a2"): 0.0,
            ("b1", "b2"): 0.0,
        }
        nodes = [
            ClusterNode.singleton("a1", origin_set="sa"),
            ClusterNode.singleton("a2", origin_set="sa"),
            ClusterNode.singleton("b1", origin_set="sb"),
            ClusterNode.singleton("b2", origin_set="sb"),
        ]
        ids = ["a1", "a2", "b1", "b2"]
        out = _merge_sets(nodes, SetConfig(set_diversity=1), TableIndex(sims))
        packs = sorted(
            tuple(sorted(n.representative for n in rs.members)) for rs in out
        )
        assert packs == [("a1", "b2"), ("a2", "b1")]

    def test_single_origin_yields_no_multinode_sets(self):
        nodes = [ClusterNode.singleton(i, origin_set="s0") for i in "abc"]
        out = _merge_sets(nodes, SetConfig(), TableIndex(default=0.5))
        assert all(len(rs) == 1 for rs in out)

    def test_every_node_selected_exactly_once(self):
        nodes = []
        ids = []
        for s in range(5):
            for j in range(3):
                rid = f"n{s}{j}"
                ids.append(rid)
                nodes.append(ClusterNode.singleton(rid, origin_set=f"s{s}"))
        out = _merge_sets(nodes, SetConfig(), TableIndex(default=0.5))
        seen = [n.representative for rs in out for n in rs.members]
        assert sorted(seen) == sorted(ids)

    def test_cannot_linked_pairs_may_copack(self):
        """A known cannot-link does not keep two clusters apart: with no open
        pair left, a settled pair still seeds a wave. Co-placing it wastes a
        slot at worst, and filtering settled pairs fragments the sets and
        stalls the hierarchy's descent."""
        nodes = [
            ClusterNode.singleton("a1", origin_set="sa"),
            ClusterNode.singleton("b1", origin_set="sb"),
        ]
        store = ConstraintStore(["a1", "b1"])
        store.add_cannot_link("a1", "b1")
        out = _merge_sets(nodes, SetConfig(), TableIndex(default=0.9), store=store)
        assert len(out) == 1
        assert sorted(n.representative for n in out[0].members) == ["a1", "b1"]

    def test_a_wave_is_seeded_by_an_open_pair_first(self):
        """The most similar cross-origin pair, 0-1, is settled, and 0-2 is
        open: the first wave is seeded by the open pair, so the round asks
        it. Were every pair open, 0-1 would seed the first wave."""
        origin = np.array([0, 1, 2])
        sims = np.array([[1.0, 0.9, 0.5], [0.9, 1.0, 0.1], [0.5, 0.1, 1.0]])
        open_ = np.zeros((3, 3), dtype=bool)
        open_[0, 2] = open_[2, 0] = True
        assert merge_round(origin, sims, 2, open_) == [[0, 2], [1]]
        assert merge_round(origin, sims, 2, np.ones((3, 3), bool)) == [[0, 1], [2]]

    def test_a_settled_pair_beats_a_join_below_it(self):
        """Five origins, sets of four, and only 0-1 open: 0-1 seeds the
        wave. The best join, 4 at 0.5, loses to the settled pair 2-3 at 0.8:
        an open pair is tried first, but no open pair beats the join. An open
        pair 2-4 at 0.3, below the join, does not hide the settled pair."""
        origin = np.arange(5)
        sims = np.full((5, 5), 0.1)
        sims[0, 1] = sims[1, 0] = 0.9
        sims[2, 3] = sims[3, 2] = 0.8
        sims[[0, 1], 4] = sims[4, [0, 1]] = 0.5
        sims[2, 4] = sims[4, 2] = 0.3
        np.fill_diagonal(sims, 1.0)
        open_ = np.zeros((5, 5), dtype=bool)
        open_[0, 1] = open_[1, 0] = open_[2, 4] = open_[4, 2] = True
        assert merge_round(origin, sims, 4, open_) == [[0, 1, 2, 3], [4]]


ALL_CLOSE = TableIndex(default=1.0)


class TestOpenPairs:
    def _open(self, store, table, b_t=0.5):
        """The open pairs among singletons a, b, c, as strings like "ac"."""
        nodes = [ClusterNode.singleton(i) for i in "abc"]
        index = TableIndex(table, default=1.0)
        out = open_pairs(nodes, store, SetConfig(b_t=b_t), _rep_sims(index, nodes))
        return {"abc"[i] + "abc"[j] for i, j in zip(*out.nonzero()) if i < j}

    def test_upper_triangle_of_close_undetermined_pairs(self):
        nodes = [ClusterNode.singleton(i) for i in "abc"]
        store = ConstraintStore(list("abc"))
        out = open_pairs(nodes, store, SetConfig(), _rep_sims(ALL_CLOSE, nodes))
        assert (out == out.T).all()
        assert np.triu(out).tolist() == [
            [False, True, True], [False, False, True], [False, False, False]
        ]

    def test_merged_roots_are_not_open(self):
        store = ConstraintStore(list("abc"))
        store.merge("a", "b")
        assert self._open(store, {}) == {"ac", "bc"}

    def test_cannot_link_is_not_open(self):
        store = ConstraintStore(list("abc"))
        store.add_cannot_link("a", "c")
        assert self._open(store, {}) == {"ab", "bc"}

    def test_b_t_is_the_bound(self):
        """A pair just below b_t is presumed distinct; one exactly at b_t is
        open."""
        below = float(np.nextafter(0.6, 0.0))
        table = {("a", "b"): below, ("a", "c"): 0.6, ("b", "c"): 0.1}
        assert self._open(ConstraintStore(list("abc")), table, b_t=0.6) == {"ac"}


class TestFinalCheck:
    def test_nothing_unresolved_no_sets(self):
        store = ConstraintStore(["a", "b"])
        store.merge("a", "b")
        nodes = [ClusterNode(frozenset("ab"), "a")]
        assert _sweep_sets(nodes, store, SetConfig(), ALL_CLOSE) == []

    def test_three_singletons_one_set(self):
        store = ConstraintStore(["a", "b", "c"])
        nodes = [ClusterNode.singleton(i) for i in "abc"]
        sets = _sweep_sets(nodes, store, SetConfig(), ALL_CLOSE)
        assert len(sets) == 1
        assert sorted(n.representative for n in sets[0].members) == ["a", "b", "c"]

    def test_biclique_cover_density(self):
        """Two origin sets of 9 mutually-distinct singletons: 81 unresolved
        cross pairs are covered by 5-9 sets of at most 9 nodes."""
        ids = [f"a{i}" for i in range(9)] + [f"b{i}" for i in range(9)]
        store = ConstraintStore(ids)
        for side in ("a", "b"):
            for i, j in itertools.combinations(range(9), 2):
                store.add_cannot_link(f"{side}{i}", f"{side}{j}")
        nodes = [ClusterNode.singleton(i, origin_set=i[0]) for i in ids]
        sets = _sweep_sets(nodes, store, SetConfig(), ALL_CLOSE)
        assert 5 <= len(sets) <= 9
        covered = set()
        for rs in sets:
            assert len(rs) <= 9
            reps = [n.representative for n in rs.members]
            for x, y in itertools.combinations(reps, 2):
                if x[0] != y[0]:
                    covered.add(frozenset((x, y)))
        assert len(covered) == 81

    def test_pair_below_b_t_is_presumed_distinct(self):
        store = ConstraintStore(["a", "b"])
        nodes = [ClusterNode.singleton(i) for i in "ab"]
        below = TableIndex({("a", "b"): 0.49})
        assert _sweep_sets(nodes, store, SetConfig(b_t=0.5), below) == []

    def test_pair_at_b_t_is_asked(self):
        """Only the pair at b_t is unresolved: one set of exactly that pair."""
        store = ConstraintStore(["a", "b", "c"])
        nodes = [ClusterNode.singleton(i) for i in "abc"]
        index = TableIndex({("a", "b"): 0.1, ("a", "c"): 0.6, ("b", "c"): 0.2})
        sets = _sweep_sets(nodes, store, SetConfig(b_t=0.6), index)
        assert [[n.representative for n in rs.members] for rs in sets] == [["a", "c"]]

    def test_all_distinct_planted_records_need_no_sweep(self):
        """Distinct entities at noise 0 have near-orthogonal embeddings: the
        sweep sends nothing, and the partition is still exact."""
        records, truth = generate_dataset(18, 1, seed=3)
        emb = planted_embeddings(truth, noise=0.0, seed=3)
        block = Block("b0", tuple(sorted(records)))
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        resolver = Resolver(records, backend, embeddings=emb)
        partition, _, report = resolver.resolve([block])
        assert report.final_check_sets == 0
        assert report.final_check_rounds == 0
        assert len(partition.clusters) == len(records)


def _one_direction_embeddings(ids):
    """Each id gets a shared direction plus half of its own orthogonal axis:
    every pair's cosine is 1 / 1.25 = 0.8."""
    out = {}
    for k, rid in enumerate(sorted(ids)):
        v = np.zeros(len(ids) + 1)
        v[0], v[k + 1] = 1.0, 0.5
        out[rid] = v
    return out


@st.composite
def _wave(draw):
    """A wave's set sizes (1 to set_size) and blocks, and a set size."""
    set_size = draw(st.integers(2, 9))
    n = draw(st.integers(0, 40))
    sizes = draw(st.lists(st.integers(1, set_size), min_size=n, max_size=n))
    block = st.integers(0, draw(st.integers(0, 8)))
    blocks = draw(st.lists(block, min_size=n, max_size=n))
    return sizes, blocks, set_size


def _shared_sets(sizes):
    """Disjoint record sets of the given sizes, ids s0, s1, ..."""
    ids = (f"r{k:03d}" for k in itertools.count())
    return [
        _set_of([next(ids) for _ in range(size)], f"s{k}")
        for k, size in enumerate(sizes)
    ]


class TestPromptSharing:
    @settings(max_examples=300, deadline=None)
    @given(_wave())
    def test_pack_sets_properties(self, wave):
        """Every set in exactly one prompt; a prompt holds at most set_size
        records and at most one set per block; one-member and full sets are
        never shared; prompts come in order of their first set."""
        sizes, blocks, set_size = wave
        prompts = pack_sets(sizes, blocks, set_size)
        assert sorted(k for p in prompts for k in p) == list(range(len(sizes)))
        assert prompts == sorted(prompts)
        for p in prompts:
            assert p == sorted(p)
            assert sum(sizes[k] for k in p) <= set_size
            assert len({blocks[k] for k in p}) == len(p)
            if len(p) > 1:
                assert all(2 <= sizes[k] < set_size for k in p)

    @pytest.mark.parametrize(
        "sizes, blocks, expected",
        [
            # a's 3 may not join a's 4, so it opens a second prompt; b's 3
            # and c's 2 fill the first; the full set and the one-member set
            # go alone
            ([4, 3, 3, 2, 9, 1], ["a", "a", "b", "c", "d", "e"],
             [[0, 2, 3], [1], [4], [5]]),
            # c's 5 does not fit beside d's 6 and opens a second prompt, and
            # d's 2 may not join d's 6, so it joins c's 5; a's 2 goes to the
            # first prompt with room (3 left), not to the one it fits most
            # tightly (2 left), which best fit and next fit would both choose
            ([2, 6, 5, 2], ["d", "d", "c", "a"], [[0, 2], [1, 3]]),
        ],
        ids=["block-conflict", "first-not-best"],
    )
    def test_pack_sets_first_fit_decreasing_by_hand(self, sizes, blocks, expected):
        assert pack_sets(sizes, blocks, 9) == expected

    @settings(max_examples=300, deadline=None)
    @given(_wave(), st.integers(0, 2**32 - 1), st.booleans())
    def test_split_is_an_exact_cover_of_each_set(self, wave, seed, reordered):
        """A reply to a shared prompt, split back, gives each set an exact
        cover of its own positions, under its own id: two of its members
        share a group exactly when the reply grouped them together. Members
        are found by node, so this holds for a prompt that regeneration has
        reordered, its sets interleaved."""
        sizes, _, _ = wave
        record_sets = _shared_sets(sizes)
        if not record_sets:
            return
        shared = share_prompt(record_sets)
        assert shared.set_id.split("+")[0] == record_sets[0].set_id
        rng = random.Random(seed)
        members = list(shared.members)
        if reordered:
            rng.shuffle(members)
        prompt = RecordSet(shared.set_id, tuple(members))
        labels = [rng.randrange(4) for _ in range(len(prompt))]
        label_of = {n.representative: lab for n, lab in zip(members, labels)}
        groups = tuple(
            tuple(p for p, lab in enumerate(labels) if lab == g)
            for g in sorted(set(labels))
        )
        reply = SetClustering(prompt.set_id, groups, ("note",))
        split = split_clustering(reply, prompt, record_sets)
        for rs, clustering in zip(record_sets, split, strict=True):
            clustering.validate(rs)
            assert clustering.source == rs.set_id and clustering.flags == ("note",)
            together = {
                (a, b) for g in clustering.groups for a in g for b in g
            }
            reps = [n.representative for n in rs.members]
            for a in range(len(rs)):
                for b in range(len(rs)):
                    same = label_of[reps[a]] == label_of[reps[b]]
                    assert ((a, b) in together) == same

    def test_a_fallback_reply_flags_every_set_it_held(self):
        """A shared prompt whose replies never parse falls back once for the
        whole prompt, and every set it held gets all singletons, flagged."""
        record_sets = _shared_sets([3, 2, 4])
        ids = [node.representative for rs in record_sets for node in rs.members]
        gateway = _gateway(["?"] * (MAX_RETRIES + 1), ids)
        shared = share_prompt(record_sets)
        reply = gateway.cluster_records(shared)
        assert gateway.ledger.api_calls == MAX_RETRIES + 1
        split = split_clustering(reply, shared, record_sets)
        for rs, clustering in zip(record_sets, split):
            assert clustering.flags == ("fallback-singletons",)
            assert clustering.groups == tuple((p,) for p in range(len(rs)))

    def test_each_set_is_asked_once_per_wave(self, monkeypatch):
        """Through the Resolver's rounds, under a noisy oracle: a round packs
        its sets into prompts once, some shared by several sets, and its
        first wave asks each set once. A regenerated prompt is asked again
        whole, under its own id and with the same records, in a later wave
        of its round."""
        records, truth = generate_dataset(48, 3, seed=4)
        emb = planted_embeddings(truth, noise=0.05, seed=4)
        rounds = []
        guarded = engine.guarded_cluster

        def recording(asked, ask, max_regen):
            waves = []
            rounds.append(waves)

            def asking(record_sets):
                waves.append({
                    rs.set_id: {n.representative for n in rs.members}
                    for rs in record_sets
                })
                return ask(record_sets)

            return guarded(asked, asking, max_regen)

        monkeypatch.setattr(engine, "guarded_cluster", recording)
        backend = _Prompts(SimulatedOracle(OracleConfig(truth, 0.3, 4)))
        resolver = Resolver(records, backend, config=SetConfig(seed=4), embeddings=emb)
        _, _, report = resolver.resolve(_entity_blocks(records, truth, 4))
        waves = [wave for waves in rounds for wave in waves]
        assert sorted(backend.asked) == sorted(
            (set_id, len(members)) for wave in waves for set_id, members in wave.items()
        )
        again = []
        for first, *later in (waves for waves in rounds if waves):
            sets = [set_id for prompt in first for set_id in prompt.split("+")]
            assert len(sets) == len(set(sets))
            for wave in later:
                for set_id, members in wave.items():
                    assert first[set_id] == members
                    again.append(set_id)
        assert len(again) == report.guardrail.regenerations > 0
        assert any("+" in set_id for set_id in again)
        assert len(backend.asked) < sum(
            len(prompt.split("+")) for wave in waves for prompt in wave
        )


def _entity_blocks(records, truth, per_block):
    """Blocks of ``per_block`` whole entities each, in entity order."""
    entities = sorted(set(truth.values()))
    blocks = []
    for k in range(0, len(entities), per_block):
        part = set(entities[k : k + per_block])
        ids = sorted(r for r in records if truth[r] in part)
        blocks.append(Block(f"b{k // per_block:05d}", tuple(ids)))
    return blocks


def _record_levels(monkeypatch):
    """Record the nodes of each level the Resolver reads, in the order the
    packers index them."""
    levels = []
    read = Resolver._level

    def reading(resolver, nodes):
        out = read(resolver, nodes)
        levels.append(out[0])
        return out

    monkeypatch.setattr(Resolver, "_level", reading)
    return levels


class TestResolve:
    def test_small_blocks_share_level0_sets(self):
        """Twelve 3-record blocks, one entity each, draw one level-0 set each,
        and the twelve sets share four prompts: an exact oracle resolves them
        exactly in 4 calls, not 12."""
        records, truth = generate_dataset(12, 3, seed=6)
        emb = planted_embeddings(truth, noise=0.05, seed=6)
        by_entity = {}
        for rid in sorted(records):
            by_entity.setdefault(truth[rid], []).append(rid)
        blocks = [
            Block(f"b{k:05d}", tuple(ids))
            for k, ids in enumerate(by_entity[e] for e in sorted(by_entity))
        ]
        assert len(blocks) == 12 and {len(b) for b in blocks} == {3}
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        resolver = Resolver(records, backend, embeddings=emb)
        partition, ledger, report = resolver.resolve(blocks)
        labels = partition.as_labels()
        assert len(set(labels.values())) == 12
        assert all(len({labels[rid] for rid in b.members}) == 1 for b in blocks)
        assert ledger.api_calls == 4
        assert report.level_set_counts == [12]
        assert report.blocks == 12

    def test_exact_on_small_dataset(self):
        records, truth = generate_dataset(5, 4, seed=21)
        emb = planted_embeddings(truth, noise=0.05, seed=21)
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        block = Block("b0", tuple(sorted(records)))
        resolver = Resolver(records, backend, embeddings=emb)
        partition, ledger, report = resolver.resolve([block])
        labels = partition.as_labels()
        groups = {}
        for rid, label in labels.items():
            groups.setdefault(label, set()).add(rid)
        truth_groups = {}
        for rid, e in truth.items():
            truth_groups.setdefault(e, set()).add(rid)
        assert sorted(groups.values(), key=sorted) == sorted(
            truth_groups.values(), key=sorted
        )
        assert ledger.api_calls > 0
        assert report.level_set_counts[0] >= 1

    def test_partition_always_covers_universe(self):
        records, truth = generate_dataset(6, 3, seed=22)
        emb = planted_embeddings(truth, noise=0.1, seed=22)
        backend = SimulatedOracle(OracleConfig(truth, 0.5, 1))
        block = Block("b0", tuple(sorted(records)))
        partition, _, _ = Resolver(records, backend, embeddings=emb).resolve([block])
        assert set(partition.as_labels()) == set(records)

    def test_a_shared_prompt_is_checked_as_asked(self):
        """Two blocks of 4 entities (12 records each) share four prompts: one
        at level 0 and three in the merge round. A backend that is exact,
        except that in a shared prompt it puts the first record with the last
        record's group, joins records of two blocks: the guardrail judges the
        prompt it answered, so each such reply fails the check and is
        repaired, and the partition is exact."""

        class MovesFirstRecord(SimulatedOracle):
            def clustering_for(self, record_set):
                groups = super().clustering_for(record_set)
                if "+" in record_set.set_id:
                    last = len(record_set) - 1
                    next(g for g in groups if 0 in g).remove(0)
                    next(g for g in groups if last in g).append(0)
                return [sorted(g) for g in groups if g]

        records, truth = generate_dataset(8, 3, seed=6)
        emb = planted_embeddings(truth, noise=0.05, seed=6)
        blocks = _entity_blocks(records, truth, 4)
        assert [len(b) for b in blocks] == [12, 12]
        backend = _Prompts(MovesFirstRecord(OracleConfig(truth, 0.0, 0)))
        resolver = Resolver(records, backend, embeddings=emb)
        partition, _, report = resolver.resolve(blocks)
        shared = [set_id for set_id, _ in backend.asked if "+" in set_id]
        assert len(shared) == 4  # the blocks' 3-record level-0 sets, then 3 merge sets
        assert report.guardrail.checks_failed == report.guardrail.repaired == 4
        labels = partition.as_labels()
        assert all((labels[a] == labels[b]) == (truth[a] == truth[b])
                   for a in records for b in records)

    def test_no_cluster_spans_two_blocks(self):
        """Blocking presumes records of different blocks distinct, and a
        shared prompt's reply is cut back into its sets: a backend that puts
        every prompt's records in one group still leaves no cluster across
        two of the 33 LSH blocks."""

        class OneGroup:
            def complete(self, prompt, record_sets):
                (record_set,) = record_sets
                return ",".join(f"R{p + 1}" for p in range(len(record_set))), None

        records, _, index, blocks = _lsh_fixture()
        resolver = Resolver(
            records, OneGroup(), config=SetConfig(seed=1),
            sim_config=index.config, embeddings=index.embeddings,
        )
        partition, _, _ = resolver.resolve(blocks)
        block_of = {rid: b.block_id for b in blocks for rid in b.members}
        assert all(
            len({block_of[rid] for rid in node.members}) == 1
            for node in partition.clusters
        )

    def test_blocks_never_compared(self):
        records, truth = generate_dataset(4, 3, seed=23)
        emb = planted_embeddings(truth, seed=23)
        ids = sorted(records)
        blocks = [Block("b0", tuple(ids[:6])), Block("b1", tuple(ids[6:]))]
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        resolver = Resolver(records, backend, embeddings=emb)
        partition, _, _ = resolver.resolve(blocks)
        labels = partition.as_labels()
        for a in ids[:6]:
            for b in ids[6:]:
                assert labels[a] != labels[b]

    def test_final_sweep_keeps_nodes_disjoint(self, monkeypatch):
        """18 distinct records in two level-0 sets, all 0.8 similar so the
        sweep asks about them: it covers the 81 cross pairs with sets that
        reuse nodes, and the next wave still sees one disjoint node per
        entity."""
        records, truth = generate_dataset(18, 1, seed=3)
        emb = _one_direction_embeddings(records)
        block = Block("b0", tuple(sorted(records)))
        levels = _record_levels(monkeypatch)
        seen = []

        def recording(open_, set_size):
            groups = final_check(open_, set_size)
            nodes = levels[-1]
            seen.append((nodes, [[nodes[i] for i in g] for g in groups]))
            return groups

        monkeypatch.setattr(engine, "final_check", recording)
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        Resolver(records, backend, embeddings=emb).resolve([block])
        assert len(seen) == 2
        first_wave = [n.representative for group in seen[0][1] for n in group]
        assert len(first_wave) > len(set(first_wave))  # a node is reused
        nodes = seen[1][0]
        assert sum(len(n.members) for n in nodes) == len(records)
        assert frozenset().union(*(n.members for n in nodes)) == set(records)

    def test_similar_distinct_records_resolve_in_few_calls(self):
        """18 distinct records, every pair 0.8 similar: each merge round packs
        full waves, so the hierarchy does not stall in pairwise rounds (25
        calls when waves were capped to stage the level width)."""
        records, truth = generate_dataset(18, 1, seed=3)
        emb = _one_direction_embeddings(records)
        block = Block("b0", tuple(sorted(records)))
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        resolver = Resolver(records, backend, embeddings=emb)
        partition, ledger, _ = resolver.resolve([block])
        assert len(partition.clusters) == len(records)
        assert ledger.api_calls <= 16

    def test_one_record_block_costs_no_call(self, monkeypatch):
        records, truth = generate_dataset(3, 2, seed=5)
        emb = planted_embeddings(truth, seed=5)
        ids = sorted(records)
        blocks = [Block("b0", (ids[0],)), Block("b1", tuple(ids[1:]))]
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        def run(some):
            return Resolver(records, backend, embeddings=emb).resolve(some)

        _, ledger, _ = run(blocks[1:])
        alone, ledger_alone, _ = run(blocks[:1])
        both, ledger_both, _ = run(blocks)
        assert ledger_alone.api_calls == 0
        assert ledger_both.api_calls == ledger.api_calls
        assert alone.as_labels()[ids[0]] == both.as_labels()[ids[0]]

        # a dataset made only of one-record blocks: each is counted as one
        # level-0 set, and none is asked or read
        singles = [Block(f"b{k}", (rid,)) for k, rid in enumerate(ids)]
        reads = []
        sims = SimilarityIndex.sims

        def reading(index, *args, **kwargs):
            reads.append(args)
            return sims(index, *args, **kwargs)

        monkeypatch.setattr(SimilarityIndex, "sims", reading)
        partition, ledger, report = run(singles)
        assert ledger.api_calls == 0
        assert reads == []
        assert report.level_set_counts == [len(singles)]
        assert len(partition.clusters) == len(ids)

    def test_one_set_block_ends_on_its_reply(self, monkeypatch):
        """A block of nine records is one level-0 set: under an exact oracle
        its one reply settles every pair, so no level is read and no node is
        built, and the partition is the truth."""
        records, truth = generate_dataset(3, 3, seed=5)
        emb = planted_embeddings(truth, noise=0.05, seed=5)
        block = Block("b0", tuple(sorted(records)))
        events = []
        resolve_block = Resolver._resolve_block
        representatives = SimilarityIndex.representatives

        def resolving(resolver, block):
            events.append("block")
            yield from resolve_block(resolver, block)
            events.append("end")

        def reading(resolver, nodes):
            raise AssertionError("a one-set block read a level")

        def electing(index, groups):
            events.append("representatives")
            return representatives(index, groups)

        monkeypatch.setattr(Resolver, "_resolve_block", resolving)
        monkeypatch.setattr(Resolver, "_level", reading)
        monkeypatch.setattr(SimilarityIndex, "representatives", electing)
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        resolver = Resolver(records, backend, embeddings=emb)
        partition, ledger, report = resolver.resolve([block])
        assert events[:2] == ["block", "end"]
        assert ledger.api_calls == 1
        assert report.level_set_counts == [1]
        assert report.final_check_rounds == 0
        entities = {}
        for rid, entity in truth.items():
            entities.setdefault(entity, set()).add(rid)
        assert sorted(map(sorted, (n.members for n in partition.clusters))) == sorted(
            map(sorted, entities.values())
        )

    def test_one_set_block_elects_only_for_the_partition(self, monkeypatch):
        """A one-set block's reply elects no representative while the block
        runs: representatives() is asked once, after the block has ended,
        for the final partition."""
        records, truth = generate_dataset(3, 3, seed=5)
        emb = planted_embeddings(truth, noise=0.05, seed=5)
        block = Block("b0", tuple(sorted(records)))
        events = []
        resolve_block = Resolver._resolve_block
        representatives = SimilarityIndex.representatives

        def resolving(resolver, block):
            events.append("block")
            yield from resolve_block(resolver, block)
            events.append("end")

        def electing(index, groups):
            events.append("representatives")
            return representatives(index, groups)

        monkeypatch.setattr(Resolver, "_resolve_block", resolving)
        monkeypatch.setattr(SimilarityIndex, "representatives", electing)
        backend = SimulatedOracle(OracleConfig(truth, 0.0, 0))
        Resolver(records, backend, embeddings=emb).resolve([block])
        assert events == ["block", "end", "representatives"]

    def test_one_set_block_that_falls_back_still_sweeps(self):
        """A reply that never parses settles nothing: the one-set block goes
        on to the sweep, which asks again, and no cannot-link is stored."""
        records, truth = generate_dataset(3, 3, seed=5)
        emb = planted_embeddings(truth, noise=0.0, seed=5)
        block = Block("b0", tuple(sorted(records)))
        backend = _ScriptedBackend(itertools.repeat("no labels here"))
        resolver = Resolver(records, backend, embeddings=emb)
        _, ledger, report = resolver.resolve([block])
        assert report.level_set_counts == [1]
        assert report.final_check_rounds == 1
        assert report.final_check_sets > 0
        asked = 1 + report.final_check_sets
        assert report.guardrail.fallbacks == asked
        assert ledger.api_calls == (MAX_RETRIES + 1) * asked
        assert not resolver.store.has_cannot_links(records)

    def test_unparseable_replies_add_no_cannot_links(self):
        records, truth = generate_dataset(6, 3, seed=4)
        emb = planted_embeddings(truth, seed=4)
        block = Block("b0", tuple(sorted(records)))
        backend = _ScriptedBackend(itertools.repeat("no labels here"))
        resolver = Resolver(records, backend, embeddings=emb)
        _, ledger, report = resolver.resolve([block])
        assert not resolver.store.has_cannot_links(records)
        fallback_sets = sum(report.level_set_counts) + report.final_check_sets
        attempts = MAX_RETRIES + 1
        assert report.guardrail.fallbacks == fallback_sets > 0
        assert ledger.api_calls == attempts * fallback_sets
        assert report.as_dict()["fallbacks"] == fallback_sets
        assert report.guardrail.checks_failed == 0
        assert report.final_check_rounds == 1  # an all-fallback wave ends the sweep

    def test_noisy_hierarchy_ends_before_max_levels(self):
        """Noisy replies keep packing sets, but the hierarchy ends on
        evidence: once no packed set holds an open pair, the sweep asks the
        open pairs left, and the run ends with none (criterion 04's data at
        a 20% error rate)."""
        records, truth = generate_dataset(40, 5, typo_rate=0.1, drop_rate=0.05, seed=1)
        emb = planted_embeddings(truth, noise=0.1, seed=1)
        block = Block("b0", tuple(sorted(records)))
        backend = SimulatedOracle(OracleConfig(truth, 0.2, 0))
        resolver = Resolver(
            records, backend, config=SetConfig(max_regen=0, seed=0), embeddings=emb
        )
        partition, _, report = resolver.resolve([block])
        assert report.guardrail.fallbacks == 0
        assert not _open_pairs_left(resolver, partition, block).any()

    def test_noisy_blocks_stop_on_evidence(self):
        """Three 100-record blocks under an oracle that errs 30% of the time:
        every hierarchy and sweep ends on evidence, with no open pair left in
        any block, well inside 10 levels and 10 sweep waves."""
        records, truth = generate_dataset(60, 5, seed=2)
        emb = planted_embeddings(truth, noise=0.05, seed=2)
        entities = sorted(set(truth.values()))
        blocks = []
        for k in range(3):
            part = set(entities[20 * k : 20 * (k + 1)])
            ids = sorted(r for r in records if truth[r] in part)
            blocks.append(Block(f"b{k}", tuple(ids)))
        resolver = Resolver(
            records, SimulatedOracle(OracleConfig(truth, 0.3, 2)),
            config=SetConfig(seed=2), embeddings=emb,
        )
        partition, _, report = resolver.resolve(blocks)
        assert report.guardrail.fallbacks == 0
        for block in blocks:
            assert not _open_pairs_left(resolver, partition, block).any()
        assert len(report.level_set_counts) - 1 < 10
        assert report.final_check_rounds < 10

    def test_sets_without_an_open_pair_are_carried_not_sent(self, monkeypatch):
        """Under a noisy oracle, a merge round sends exactly the packed sets
        that hold an open pair. The nodes of every other set reach the next
        round unchanged, origin set included, and the last round packs no
        open pair."""
        records, truth = generate_dataset(40, 5, seed=1)
        emb = planted_embeddings(truth, noise=0.05, seed=1)
        block = Block("b0", tuple(sorted(records)))
        oracle = SimulatedOracle(OracleConfig(truth, 0.3, 1))
        sent = set()

        class Recording:
            def complete(self, prompt, record_sets):
                sent.update(rs.set_id for rs in record_sets)
                return oracle.complete(prompt, record_sets)

        levels = _record_levels(monkeypatch)
        rounds = []

        def packing(origin, sims, set_size, open_):
            groups = merge_round(origin, sims, set_size, open_)
            nodes = levels[-1]
            packed = _named(f"b0.L{len(rounds) + 1}", nodes, groups)
            flags = [
                open_pairs(
                    rs.members,
                    resolver.store,
                    resolver.config,
                    _rep_sims(resolver.index, rs.members),
                ).any()
                for rs in packed
            ]
            rounds.append((nodes, list(zip(packed, flags))))
            return groups

        monkeypatch.setattr(engine, "merge_round", packing)
        resolver = Resolver(
            records, Recording(), config=SetConfig(seed=1), embeddings=emb
        )
        resolver.resolve([block])

        carried = 0
        for k, (_, packed) in enumerate(rounds):
            for rs, is_open in packed:
                assert (rs.set_id in sent) == is_open, rs.set_id
                if is_open or k + 1 == len(rounds):
                    continue
                next_nodes = rounds[k + 1][0]
                for node in rs.members:
                    assert any(node is other for other in next_nodes)
                    carried += 1
        assert carried > 0
        assert len(rounds) > 1 and not any(is_open for _, is_open in rounds[-1][1])

    @pytest.mark.parametrize("error_rate", [0.0, 0.3])
    def test_each_level_is_read_once(self, monkeypatch, error_rate):
        """The level on which merging stops is also the sweep's first level:
        it is read once. No two reads of the same nodes come without a round
        between them."""
        records, truth = generate_dataset(40, 5, seed=1)
        emb = planted_embeddings(truth, noise=0.05, seed=1)
        block = Block("b0", tuple(sorted(records)))
        events = []
        read, round_ = Resolver._level, Resolver._round

        def reading(resolver, nodes):
            out = read(resolver, nodes)
            events.append(tuple((n.members, n.representative) for n in out[0]))
            return out

        def asking(resolver, record_sets):
            events.append("round")
            return round_(resolver, record_sets)

        monkeypatch.setattr(Resolver, "_level", reading)
        monkeypatch.setattr(Resolver, "_round", asking)
        resolver = Resolver(
            records, SimulatedOracle(OracleConfig(truth, error_rate, 1)),
            config=SetConfig(seed=1), embeddings=emb,
        )
        _, _, report = resolver.resolve([block])
        for a, b in zip(events, events[1:]):
            assert a == "round" or a != b
        reads = [e for e in events if e != "round"]
        assert len(reads) == len(report.level_set_counts) + report.final_check_rounds

    @pytest.mark.parametrize("error_rate", [0.0, 0.3])
    def test_rounds_read_no_similarities(self, monkeypatch, error_rate):
        """Every asked set carries its matrix from the read that built it,
        and regeneration permutes that matrix: a round, guardrail and
        regenerations included, reads no similarities."""
        records, truth = generate_dataset(40, 5, seed=1)
        emb = planted_embeddings(truth, noise=0.05, seed=1)
        block = Block("b0", tuple(sorted(records)))
        inside, reads = [], []
        round_, sims = Resolver._round, SimilarityIndex.sims

        def asking(resolver, asked):
            inside.append(True)
            try:
                return round_(resolver, asked)
            finally:
                inside.pop()

        def reading(index, *args, **kwargs):
            reads.append(bool(inside))
            return sims(index, *args, **kwargs)

        monkeypatch.setattr(Resolver, "_round", asking)
        monkeypatch.setattr(SimilarityIndex, "sims", reading)
        resolver = Resolver(
            records, SimulatedOracle(OracleConfig(truth, error_rate, 1)),
            config=SetConfig(seed=1), embeddings=emb,
        )
        _, _, report = resolver.resolve([block])
        assert reads and not any(reads)
        if error_rate:
            assert report.guardrail.checks_failed > 0

    def test_a_resolver_resolves_once(self):
        """A second resolve() on the same Resolver would start from the first
        run's store, report and ledger: it is a RuntimeError, and the first
        run's report stands as a fresh Resolver gives it."""
        records, truth = generate_dataset(24, 5, seed=1)
        emb = planted_embeddings(truth, noise=0.05, seed=1)
        block = Block("b0", tuple(sorted(records)))

        def resolver():
            return Resolver(
                records, SimulatedOracle(OracleConfig(truth, 0.0, 1)),
                config=SetConfig(seed=1), embeddings=emb,
            )

        used = resolver()
        _, ledger, report = used.resolve([block])
        with pytest.raises(RuntimeError, match="already resolved"):
            used.resolve([block])
        _, fresh_ledger, fresh_report = resolver().resolve([block])
        assert report.level_set_counts == fresh_report.level_set_counts
        assert report.guardrail == fresh_report.guardrail
        assert (ledger.api_calls, ledger.tokens_in) == (
            fresh_ledger.api_calls, fresh_ledger.tokens_in
        )


# Loop versions of merge_round and final_check, kept as references for the
# index code in the engine: both must emit the same set ids, members and
# member order. They break ties with their own copy of neg_key, so they stay
# frozen whatever the program's tie-breaking code becomes.


class neg_key:
    """Inverts string ordering so max() breaks similarity ties toward lower ids."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return self.value > other.value

    def __eq__(self, other):
        return self.value == other.value


def _reference_merge_round(nodes, config, table, set_id_prefix, store):
    origins = {node.origin_set or "" for node in nodes}
    if len(origins) < 2:
        return []

    def sim(a, b):
        return table[tuple(sorted((a.representative, b.representative)))]

    def is_open(a, b):
        ra, rb = a.representative, b.representative
        return (
            sim(a, b) >= config.b_t
            and not store.same_entity(ra, rb)
            and not store.cannot_link(ra, rb)
        )

    unselected = sorted(nodes, key=lambda n: n.representative)
    size_cap = min(config.set_size, len(origins))

    groups = []
    while unselected:
        picks = []
        used_origins = set()

        def take(node):
            unselected.remove(node)
            used_origins.add(node.origin_set or "")
            picks.append(node)

        while len(picks) < size_cap:
            candidates = [
                n for n in unselected if (n.origin_set or "") not in used_origins
            ]
            if not candidates:
                break
            best_join = None
            if picks:
                best_join = max(
                    (
                        (max(sim(n, p) for p in picks), neg_key(n.representative), n)
                        for n in candidates
                    ),
                    key=lambda t: t[:2],
                )
            # the best open pair if it beats the join, else the best
            # settled pair if it does
            best_pair = None
            for opened in (True, False) if len(picks) + 2 <= size_cap else ():
                best = None
                # candidates are in representative order, so p < q
                for i, p in enumerate(candidates):
                    for q in candidates[i + 1 :]:
                        if (p.origin_set or "") == (q.origin_set or ""):
                            continue
                        if is_open(p, q) != opened:
                            continue
                        key = (
                            sim(p, q),
                            neg_key(p.representative),
                            neg_key(q.representative),
                        )
                        if best is None or key > best[:3]:
                            best = (*key, p, q)
                if best is not None and (best_join is None or best[0] > best_join[0]):
                    best_pair = best
                    break
            if best_pair is not None:
                take(best_pair[3])
                take(best_pair[4])
            elif best_join is not None:
                take(best_join[2])
            else:
                take(candidates[0])
        groups.append(picks)

    out = []
    for counter, picks in enumerate(groups):
        ordered_picks = [picks.pop(0)]
        while picks:
            last = ordered_picks[-1]
            nxt = max(picks, key=lambda n: (sim(last, n), neg_key(n.representative)))
            picks.remove(nxt)
            ordered_picks.append(nxt)
        out.append(
            RecordSet(
                set_id=f"{set_id_prefix}.{counter:04d}",
                members=tuple(ordered_picks),
            )
        )
    return out


def _reference_final_check(nodes, store, config, table, set_id_prefix, start=0):
    nodes = sorted(nodes, key=lambda n: n.representative)
    uncovered = set()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            a, b = nodes[i].representative, nodes[j].representative
            if table.get(tuple(sorted((a, b))), 1.0) < config.b_t:
                continue
            if not store.same_entity(a, b) and not store.cannot_link(a, b):
                uncovered.add(frozenset((i, j)))

    out = []
    counter = start
    while uncovered:
        degree = {
            i: sum(1 for pair in uncovered if i in pair) for i in range(len(nodes))
        }
        seed = max(
            range(len(nodes)),
            key=lambda i: (degree[i], neg_key(nodes[i].representative)),
        )
        if degree[seed] == 0:
            break
        chosen = [seed]
        while len(chosen) < config.set_size:
            best, best_gain = None, 0
            for i in range(len(nodes)):
                if i in chosen:
                    continue
                gain = sum(1 for c in chosen if frozenset((i, c)) in uncovered)
                if gain > best_gain:
                    best, best_gain = i, gain
            if best is None or best_gain == 0:
                break
            chosen.append(best)
        if len(chosen) < 2:
            break
        for x in range(len(chosen)):
            for y in range(x + 1, len(chosen)):
                uncovered.discard(frozenset((chosen[x], chosen[y])))
        out.append(
            RecordSet(
                set_id=f"{set_id_prefix}.{counter:04d}",
                members=tuple(nodes[i] for i in chosen),
            )
        )
        counter += 1
    return out


def _random_ids(rng, n):
    # shuffled names, so representative order differs from origin order
    ids = [f"r{k:03d}" for k in range(n)]
    rng.shuffle(ids)
    return ids


def _quantised_table(rng, ids):
    """Pair similarities in 0.1 steps, so exact ties are common."""
    return {
        pair: rng.randint(-2, 10) / 10
        for pair in itertools.combinations(sorted(ids), 2)
    }


def _cannot_link_some(rng, store, ids, share):
    for a, b in itertools.combinations(ids, 2):
        if rng.random() < share and not store.same_entity(a, b):
            store.add_cannot_link(a, b)


def _merge_state(seed):
    rng = random.Random(seed)
    origins = rng.randint(3, 12)
    sizes = [rng.randint(1, 6) for _ in range(origins)]
    ids = _random_ids(rng, sum(sizes))
    names = [f"s{o:02d}" for o in range(origins)]
    rng.shuffle(names)
    nodes, k = [], 0
    for name, size in zip(names, sizes):
        nodes.extend(ClusterNode.singleton(rid, name) for rid in ids[k : k + size])
        k += size
    rng.shuffle(nodes)
    rng.randint(0, 3)  # an unused draw, kept so the seeded tables stay the same
    return nodes, _quantised_table(rng, ids)


def _merge_store(seed, nodes):
    """A store over the nodes' records with some pairs merged and some
    cannot-linked, so that a round sees open and settled pairs above b_t."""
    rng = random.Random(2000 + seed)
    ids = sorted(n.representative for n in nodes)
    store = ConstraintStore(ids)
    for _ in range(len(ids) // 8):
        store.merge(*rng.sample(ids, 2))
    _cannot_link_some(rng, store, ids, rng.choice([0.0, 0.1, 0.5]))
    return store


def _large_merge_state(seed):
    """20-60 origin sets of up to 200 nodes over a quantised table: waves
    run long, and many pairs tie."""
    rng = random.Random(1000 + seed)
    origins = rng.randint(20, 60)
    ids = _random_ids(rng, rng.randint(100, 200))
    # every origin set holds a node; the rest are spread at random
    labels = list(range(origins))
    labels += [rng.randrange(origins) for _ in range(len(ids) - origins)]
    nodes = [ClusterNode.singleton(r, f"s{o:02d}") for r, o in zip(ids, labels)]
    return nodes, _quantised_table(rng, ids)


def _sweep_state(seed):
    """Nodes, one per entity, over a store with merges and cannot-links, and
    a quantised similarity table over the ids."""
    rng = random.Random(seed)
    ids = _random_ids(rng, rng.randint(2, 30))
    store = ConstraintStore(ids)
    for _ in range(len(ids) // 4):
        store.merge(*rng.sample(ids, 2))
    _cannot_link_some(rng, store, ids, rng.choice([0.0, 0.05, 0.3]))
    nodes = []
    for members in store.components().values():
        nodes.append(ClusterNode(frozenset(members), rng.choice(members)))
    rng.shuffle(nodes)
    return nodes, store, _quantised_table(rng, ids)


_CONFIGS = [
    SetConfig(set_size=2, set_diversity=1),
    SetConfig(),
]


class TestMatchesReference:
    @pytest.mark.parametrize("unlabelled", [False, True])
    @pytest.mark.parametrize("config", _CONFIGS, ids=["size2", "size9"])
    def test_merge_round(self, config, unlabelled):
        """Over a store with merged and cannot-linked pairs, so waves are
        seeded by open pairs and fall back to settled ones. With
        ``unlabelled``, the nodes of one origin set carry no origin: they
        share the origin "" and are still never co-packed."""
        states = [_merge_state(seed) for seed in range(40)]
        states += [_large_merge_state(seed) for seed in range(3)]
        for seed, (nodes, table) in enumerate(states):
            if unlabelled:
                first = nodes[0].origin_set
                nodes = [
                    ClusterNode.singleton(n.representative)
                    if n.origin_set == first
                    else n
                    for n in nodes
                ]
            store = _merge_store(seed, nodes)
            expected = _reference_merge_round(nodes, config, table, "b.L1", store)
            got = _merge_sets(nodes, config, TableIndex(table), "b.L1", store)
            assert got == expected, seed

    @pytest.mark.parametrize("config", _CONFIGS, ids=["size2", "size9"])
    def test_final_check(self, config):
        """On an all-ones table every undetermined pair is asked; on the
        quantised one (exact 0.5 ties included) only those at or above b_t."""
        for seed in range(40):
            nodes, store, quantised = _sweep_state(seed)
            for table in ({}, quantised):
                index = TableIndex(table, default=1.0)
                for start in (0, 7):
                    expected = _reference_final_check(
                        nodes, store, config, table, "b.F", start
                    )
                    got = _sweep_sets(nodes, store, config, index, "b.F", start)
                    assert got == expected, seed


@st.composite
def _level_arrays(draw):
    """Origin labels, a symmetric similarity matrix in 0.1 steps (so ties are
    common) and a symmetric open-pair matrix over n nodes, and a set size."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sims = np.triu(rng.integers(-2, 11, (n, n)) / 10, 1)
    origin = rng.integers(0, draw(st.integers(1, 7)), n)
    open_ = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.1, 0.5, 1.0])), 1)
    return origin, sims + sims.T + np.eye(n), open_ | open_.T, draw(st.integers(2, 9))


class TestPackerProperties:
    @settings(max_examples=200, deadline=None)
    @given(_level_arrays())
    def test_merge_round_packs_each_index_once(self, level):
        """Every index in exactly one group, no two equal origins in a group,
        and no group above min(set size, origins); one origin packs nothing."""
        origin, sims, open_, set_size = level
        groups = merge_round(origin, sims, set_size, open_)
        origins = len(set(origin.tolist()))
        if origins < 2:
            assert groups == []
            return
        assert sorted(i for g in groups for i in g) == list(range(len(origin)))
        for g in groups:
            assert len(set(origin[g].tolist())) == len(g)
            assert 1 <= len(g) <= min(set_size, origins)

    @settings(max_examples=200, deadline=None)
    @given(_level_arrays())
    def test_merge_round_seeds_waves_with_open_pairs(self, level):
        """Each wave begun while two unselected indices of different origins
        share an open pair is seeded by the best such pair (similarity
        descending, then row, then column): the group starts at its row and
        holds its column."""
        origin, sims, open_, set_size = level
        groups = merge_round(origin, sims, set_size, open_)
        unselected = np.ones(len(origin), dtype=bool)
        for g in groups:
            seeds = np.triu(open_ & (origin[:, None] != origin), 1)
            seeds &= unselected[:, None] & unselected
            rows, cols = np.nonzero(seeds)
            if rows.size:
                best = min(zip(-sims[rows, cols], rows, cols))
                assert g[0] == best[1] and best[2] in g
            unselected[g] = False

    @settings(max_examples=200, deadline=None)
    @given(_level_arrays())
    def test_final_check_covers_every_open_pair(self, level):
        """Each open pair shares a group; each group holds 2 to set size
        distinct nodes; the open matrix is left as given."""
        _, _, open_, set_size = level
        given_open = open_.copy()
        groups = final_check(open_, set_size)
        assert np.array_equal(open_, given_open)
        covered = np.zeros_like(open_)
        for g in groups:
            assert 2 <= len(set(g)) == len(g) <= set_size
            covered[np.ix_(g, g)] = True
        assert not (open_ & ~covered).any()


def _open_pairs_left(resolver, partition, block):
    """The open pairs (see open_pairs) among the partition's clusters of
    ``block``, in representative order."""
    members = set(block.members)
    nodes = sorted(
        (n for n in partition.clusters if n.representative in members),
        key=lambda n: n.representative,
    )
    sims = resolver.index.sims(n.representative for n in nodes)
    return open_pairs(nodes, resolver.store, resolver.config, sims)


def _partition_digest(partition):
    clusters = sorted(",".join(sorted(n.members)) for n in partition.clusters)
    return hashlib.sha256("\n".join(clusters).encode()).hexdigest()


def test_level0_pre_clusters_each_block_once(monkeypatch):
    """A block larger than one set runs the elbow once, one Lloyd run per
    k = 2..set_diversity + 2, and every level-0 set is drawn from that one
    pre-clustering; a block that fits one set runs no elbow. Each block's
    level-0 sets partition it, and each comes with the similarity matrix of
    its records, a one-record set too."""
    ks, elbows = [], []
    lloyd, elbow_k = setbuilder._lloyd, setbuilder.elbow_k

    def counting(points, centers):
        ks.append(len(centers))
        return lloyd(points, centers)

    def elbow(points, k_max, seed=0):
        elbows.append(k_max)
        return elbow_k(points, k_max, seed)

    records, truth = generate_dataset(12, 5, seed=2)
    emb = planted_embeddings(truth, noise=0.05, seed=2)
    ids = sorted(records)
    config = SetConfig(seed=2)
    big, small = Block("big", tuple(ids[:51])), Block("small", tuple(ids[51:]))
    assert len(big) > config.set_size >= len(small)

    resolver = Resolver(
        records, SimulatedOracle(OracleConfig(truth, 0.0, 2)), config=config,
        embeddings=emb,
    )
    drawn = {}
    level0_sets = resolver._level0_sets

    def recording(block):
        before = len(ks), len(elbows)
        sets = level0_sets(block)
        drawn[block.block_id] = (ks[before[0]:], len(elbows) - before[1], sets)
        return sets

    monkeypatch.setattr(setbuilder, "_lloyd", counting)
    monkeypatch.setattr(setbuilder, "elbow_k", elbow)
    monkeypatch.setattr(resolver, "_level0_sets", recording)
    resolver.resolve([big, small])

    assert drawn["big"][:2] == (list(range(2, config.set_diversity + 3)), 1)
    assert drawn["small"][:2] == ([], 0)
    for block in (big, small):
        members = [
            rid for rs, _ in drawn[block.block_id][2] for node in rs.members
            for rid in node.members
        ]
        assert sorted(members) == sorted(block.members)
        for rs, sims in drawn[block.block_id][2]:
            assert np.array_equal(sims, _rep_sims(resolver.index, rs.members))


def test_planted_block_resolves_as_pinned():
    """One 150-record planted block under an exact oracle. Refactors of the
    engine keep this run byte-identical: partition, level widths, sweep sets
    and calls."""
    records, truth = generate_dataset(30, 5, seed=1)
    emb = planted_embeddings(truth, noise=0.05, seed=1)
    block = Block("b0", tuple(sorted(records)))
    backend = SimulatedOracle(OracleConfig(truth, 0.0, 1))
    resolver = Resolver(records, backend, config=SetConfig(seed=1), embeddings=emb)
    partition, ledger, report = resolver.resolve([block])
    assert _partition_digest(partition) == (
        "b45e679493627fce12a992bf5d5ba1544accd1390caad9cea6f66b31d4a68e5a"
    )
    assert report.level_set_counts == [17, 9, 5, 1]
    assert report.final_check_sets == 0
    assert ledger.api_calls == 32


def test_resolver_takes_a_prebuilt_index():
    """A prebuilt index replaces sim_config and embeddings, and resolves as
    the index the resolver would build; passing both is a ValueError."""
    records, truth = generate_dataset(30, 5, seed=1)
    emb = planted_embeddings(truth, noise=0.05, seed=1)
    index = SimilarityIndex(records, embeddings=emb)
    backend = SimulatedOracle(OracleConfig(truth, 0.0, 1))
    with pytest.raises(ValueError):
        Resolver(records, backend, index=index, embeddings=emb)
    with pytest.raises(ValueError):
        Resolver(records, backend, index=index, sim_config=index.config)
    resolver = Resolver(records, backend, config=SetConfig(seed=1), index=index)
    assert resolver.index is index
    partition, ledger, _ = resolver.resolve([Block("b0", tuple(sorted(records)))])
    assert _partition_digest(partition) == (
        "b45e679493627fce12a992bf5d5ba1544accd1390caad9cea6f66b31d4a68e5a"
    )
    assert ledger.api_calls == 32


def test_a_prebuilt_index_must_cover_the_records():
    """An index built without one of the records is a ValueError naming it,
    raised when the resolver is built, not a KeyError mid-run."""
    records, truth = generate_dataset(6, 3, seed=1)
    missing = sorted(records)[4]
    index = SimilarityIndex({rid: r for rid, r in records.items() if rid != missing})
    backend = SimulatedOracle(OracleConfig(truth, 0.0, 1))
    with pytest.raises(ValueError, match=repr(missing)):
        Resolver(records, backend, index=index)


class TestBlockChecks:
    """resolve() takes disjoint blocks with distinct ids over known records,
    and rejects any other before a call is made."""

    def _rejects(self, blocks, match):
        records, truth = generate_dataset(6, 3, seed=1)
        ledger = CostLedger()
        resolver = Resolver(
            records, SimulatedOracle(OracleConfig(truth, 0.0, 1)), ledger=ledger
        )
        with pytest.raises(ValueError, match=match):
            resolver.resolve(blocks(sorted(records)))
        assert ledger.api_calls == 0

    def test_overlapping_blocks_are_rejected(self):
        self._rejects(
            lambda ids: [Block("b0", tuple(ids[0:3])), Block("b1", tuple(ids[2:5]))],
            "in two blocks",
        )
        self._rejects(
            lambda ids: [Block("b0", tuple(ids[:10])), Block("b1", tuple(ids[5:]))],
            "in two blocks",
        )
        self._rejects(
            lambda ids: [Block("b0", (ids[0], ids[1], ids[0]))], "twice in one"
        )

    def test_an_unknown_record_is_rejected(self):
        self._rejects(
            lambda ids: [Block("b0", tuple(ids[:3]) + ("nobody",))], "'nobody'"
        )

    def test_a_repeated_block_id_is_rejected(self):
        self._rejects(
            lambda ids: [Block("b0", tuple(ids[:3])), Block("b0", tuple(ids[3:6]))],
            "block id 'b0'",
        )


def test_800_record_block_resolves_as_pinned():
    """One 800-record planted block under an exact oracle: merge rounds over
    hundreds of nodes from dozens of origin sets, and k-means over the whole
    block. Faster kernels keep this run byte-identical: partition, level
    widths, sweep sets and calls."""
    records, truth = generate_dataset(160, 5, seed=1)
    emb = planted_embeddings(truth, noise=0.05, seed=1)
    block = Block("b0", tuple(sorted(records)))
    backend = SimulatedOracle(OracleConfig(truth, 0.0, 1))
    resolver = Resolver(records, backend, config=SetConfig(seed=1), embeddings=emb)
    partition, ledger, report = resolver.resolve([block])
    assert _partition_digest(partition) == (
        "f5c0ab6ca313b952f37a00064db56c5eba6497ee424da1d622b3d9327ee48884"
    )
    assert report.level_set_counts == [89, 48, 28, 4]
    assert report.final_check_sets == 0
    assert ledger.api_calls == 169


def _lsh_fixture():
    """40 entities of 5 records cut into 33 LSH blocks over hashed TF-IDF,
    the largest of 40 records."""
    records, truth = generate_dataset(40, 5, seed=1)
    index = SimilarityIndex(records)
    blocks = make_blocks(
        "lsh", records, index.token_sets, index.embeddings,
        BlockingParams(b_t=0.2, seed=1),
    )
    assert (len(blocks), max(len(b) for b in blocks)) == (33, 40)
    return records, truth, index, blocks


class _Prompts:
    """Asks the wrapped backend, recording each prompt's set id and size."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def complete(self, prompt, record_sets):
        (record_set,) = record_sets
        self.asked.append((record_set.set_id, len(record_set)))
        return self.inner.complete(prompt, record_sets)


def test_noisy_lsh_blocks_resolve_as_pinned():
    """The 33 LSH blocks under an oracle that errs 30% of the time: repairs
    and conflict warnings happen. Each block of two or more records draws
    its own level-0 sets, 43 in all. Sets of different blocks share prompts,
    the guardrail checks each prompt, and the oracle's random stream follows
    the prompt, so this partition is not the one of one call per set.
    Refactors of the engine keep this run byte-identical, with one worker or
    two."""
    records, truth, index, blocks = _lsh_fixture()
    for parallelism in (1, 2):
        resolver = Resolver(
            records,
            SimulatedOracle(OracleConfig(truth, 0.3, 1)),
            config=SetConfig(seed=1),
            sim_config=index.config,
            embeddings=index.embeddings,
            parallelism=parallelism,
        )
        partition, ledger, report = resolver.resolve(blocks)
        assert _partition_digest(partition) == (
            "6e0dcfeef1df5d3d32b432793533cc9f4865bc8de5f4524ab7b0ee6eabc69d33"
        )
        assert ledger.api_calls == 29
        assert report.level_set_counts == [43, 15, 2]
        assert report.final_check_sets == 0
        assert report.guardrail.repaired == 22
        assert report.guardrail.regenerations == 0
        assert report.guardrail.conflict_warnings == 1


def test_store_roots_do_not_leak(monkeypatch):
    """The engine uses the store's roots only as keys: resolving the 33 LSH
    blocks under an oracle that errs 30% of the time over the brute-force
    store, whose roots are other members (135 of this run's 184 root
    lookups differ), gives the same partition, ledger and integer report
    counters, with one worker or three."""
    records, truth, index, blocks = _lsh_fixture()

    def run(parallelism):
        resolver = Resolver(
            records,
            SimulatedOracle(OracleConfig(truth, 0.3, 1)),
            config=SetConfig(seed=1),
            index=index,
            parallelism=parallelism,
        )
        partition, ledger, report = resolver.resolve(blocks)
        ints = {
            k: v
            for k, v in {**ledger.snapshot(), **report.as_dict()}.items()
            if isinstance(v, (int, list))
        }
        return set(partition.clusters), ints

    for parallelism in (1, 3):
        real = run(parallelism)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "ConstraintStore", ReferenceStore)
            assert run(parallelism) == real
        assert real[1]["api_calls"] > 0 and real[1]["repaired"] > 0


def test_exact_lsh_blocks_share_prompts_as_pinned():
    """The 33 LSH blocks under an exact oracle: the 47 sets asked share 29
    calls, 15 of them shared prompts. A prompt holds at most one set of a
    block and at most set_size records; every set is asked once."""
    records, truth, index, blocks = _lsh_fixture()
    for parallelism in (1, 2):
        backend = _Prompts(SimulatedOracle(OracleConfig(truth, 0.0, 1)))
        resolver = Resolver(
            records,
            backend,
            config=SetConfig(seed=1),
            sim_config=index.config,
            embeddings=index.embeddings,
            parallelism=parallelism,
        )
        partition, ledger, report = resolver.resolve(blocks)
        assert _partition_digest(partition) == (
            "880ffc1037c3a218069b30c3bbcc7c9fbc9f74fd1f4b668879b456e7bc23391b"
        )
        assert report.level_set_counts == [43, 14, 1, 1]
        assert report.guardrail == type(report.guardrail)()
        assert ledger.api_calls == len(backend.asked) == 29
        held = [set_id.split("+") for set_id, _ in backend.asked]
        asked = [set_id for ids in held for set_id in ids]
        assert len(asked) == len(set(asked)) == 47
        assert sum(len(ids) > 1 for ids in held) == 15
        for ids, (_, size) in zip(held, backend.asked):
            assert size <= resolver.config.set_size
            assert len({set_id.split(".")[0] for set_id in ids}) == len(ids)


def test_jaccard_block_resolves_as_pinned():
    """One 160-record block under token Jaccard similarity and an oracle
    that errs 30% of the time: every failed check is repaired and conflict
    warnings happen. Refactors of the engine keep this run byte-identical,
    with one worker or two."""
    records, truth = generate_dataset(40, 4, seed=2)
    block = Block("b0", tuple(sorted(records)))
    for parallelism in (1, 2):
        resolver = Resolver(
            records,
            SimulatedOracle(OracleConfig(truth, 0.3, 2)),
            config=SetConfig(seed=2, b_t=0.3),
            sim_config=SimilarityConfig(measure="jaccard"),
            parallelism=parallelism,
        )
        partition, ledger, report = resolver.resolve([block])
        assert _partition_digest(partition) == (
            "56933a20bc7f016eaa033b22d3871be9df6df4a141900de4df4cf5f997b7ccae"
        )
        assert ledger.api_calls == 41
        assert report.level_set_counts == [18, 11, 5, 4, 3]
        assert report.final_check_sets == 0
        assert report.guardrail.repaired == 37
        assert report.guardrail.regenerations == 0
        assert report.guardrail.conflict_warnings == 14


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
def test_every_prompt_carries_its_representatives_matrix(measure, monkeypatch):
    """Under either measure, the matrix each prompt reaches the guardrail
    with, a one-set block's level-0 set and a shared prompt included, is
    index.sims of its representatives, byte for byte."""
    records, truth, index, blocks = _lsh_fixture()
    resolver = Resolver(
        records,
        SimulatedOracle(OracleConfig(truth, 0.3, 1)),
        config=SetConfig(seed=1),
        sim_config=SimilarityConfig(measure=measure),
        embeddings=index.embeddings,
    )
    guarded = engine.guarded_cluster
    asked = []

    def checking(prompts, ask, max_regen):
        for rs, sims in prompts:
            want = resolver.index.sims(n.representative for n in rs.members)
            assert sims.tobytes() == want.tobytes(), rs.set_id
            asked.append(rs.set_id)
        return guarded(prompts, ask, max_regen)

    monkeypatch.setattr(engine, "guarded_cluster", checking)
    resolver.resolve(blocks)
    assert any("+" in set_id for set_id in asked)
    one_set = {b.block_id for b in blocks if 2 <= len(b) <= resolver.config.set_size}
    assert one_set & {set_id.split(".")[0] for set_id in asked if ".L0." in set_id}


def test_one_set_blocks_read_level0_in_one_call_per_size(monkeypatch):
    """The level-0 matrices of blocks that fit one set are read before the
    first round, one kernel call per block size, not one per block."""
    records, truth, index, blocks = _lsh_fixture()
    resolver = Resolver(
        records,
        SimulatedOracle(OracleConfig(truth, 0.0, 1)),
        config=SetConfig(seed=1),
        sim_config=index.config,
        embeddings=index.embeddings,
    )
    fits = [b for b in blocks if 2 <= len(b) <= resolver.config.set_size]
    sizes = {len(b) for b in fits}
    assert len(fits) > len(sizes)
    calls = []
    kernel = similarity.cosine_blocks

    def counting(a, b, na, nb):
        calls.append(a.shape)
        return kernel(a, b, na, nb)

    class FirstRound(Exception):
        pass

    def stopping(resolver, steps):
        raise FirstRound

    monkeypatch.setattr(similarity, "cosine_blocks", counting)
    monkeypatch.setattr(Resolver, "_round", stopping)
    with pytest.raises(FirstRound):
        resolver.resolve(fits)
    assert len(calls) <= len(sizes)
    assert resolver._level0 == {}


def test_final_partition_is_the_stores_entities():
    """The partition resolve() returns is the one _nodes built from every
    record's singleton: the store's entities in order of their lowest id,
    each with its representative (a one-record entity its record) and no
    origin set."""
    records, truth, index, blocks = _lsh_fixture()
    resolver = Resolver(
        records,
        SimulatedOracle(OracleConfig(truth, 0.3, 1)),
        config=SetConfig(seed=1),
        sim_config=index.config,
        embeddings=index.embeddings,
    )
    partition, _, _ = resolver.resolve(blocks)
    groups = {}
    for rid in sorted(records):
        groups.setdefault(resolver.store.root(rid), []).append(ClusterNode.singleton(rid))
    expected = []
    for first, *rest in groups.values():
        if rest:
            members = first.members.union(*(node.members for node in rest))
            first = ClusterNode(members, resolver.index.representative(members))
        expected.append(first)
    assert any(len(node.members) > 1 for node in expected)
    assert partition.clusters == expected
    assert {node.origin_set for node in partition.clusters} == {None}


class _InFlight:
    """Sleeps ``latency_s`` per call, then asks the wrapped backend, counting
    the calls in flight and their peak. A call for set ``fail`` raises
    ProviderUnavailable instead."""

    def __init__(self, inner, latency_s=0.005, fail=None):
        self.inner = inner
        self.latency_s = latency_s
        self.fail = fail
        self.in_flight = self.peak = self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, record_sets):
        with self._lock:
            self.calls += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.latency_s)
            if record_sets[0].set_id == self.fail:
                raise ProviderUnavailable(f"no reply for {self.fail}")
            return self.inner.complete(prompt, record_sets)
        finally:
            with self._lock:
                self.in_flight -= 1


def _noisy_block(seed=1):
    """One 200-record planted block under an oracle that errs 30% of the
    time: level 0 asks 23 sets, and replies get repaired and regenerated."""
    records, truth = generate_dataset(40, 5, seed=seed)
    emb = planted_embeddings(truth, noise=0.05, seed=seed)
    block = Block("b0", tuple(sorted(records)))
    return records, emb, block, SimulatedOracle(OracleConfig(truth, 0.3, seed))


def test_only_backend_calls_leave_the_calling_thread(monkeypatch):
    """Under three workers, the check, the call-free repair and the fold into
    the store all run on the thread that called resolve(), at most three
    calls are in flight at once, and the ledger counts every call, with
    threads switching often."""
    records, emb, block, oracle = _noisy_block()
    threads = []
    for name in ("mdg_check", "repair_clustering", "apply_clustering"):

        def on_thread(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            threads.append((_name, threading.get_ident()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, on_thread)
    backend = _InFlight(oracle)
    resolver = Resolver(
        records, backend, config=SetConfig(seed=1), embeddings=emb, parallelism=3
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _, ledger, report = resolver.resolve([block])
    finally:
        sys.setswitchinterval(interval)
    assert ledger.api_calls == backend.calls
    assert report.guardrail.repaired > 0
    assert {name for name, _ in threads} == {
        "mdg_check", "repair_clustering", "apply_clustering"
    }
    assert {ident for _, ident in threads} == {threading.get_ident()}
    assert backend.peak == 3


def test_small_blocks_keep_three_calls_in_flight():
    """Twelve blocks of nine records, each one level-0 set: their sets are
    asked in one round across blocks, so three workers keep three calls in
    flight (one at a time when each block ran its own rounds), and one
    worker or three give the same partition and report counters."""
    records, truth = generate_dataset(36, 3, seed=3)
    emb = planted_embeddings(truth, noise=0.05, seed=3)
    blocks = _entity_blocks(records, truth, 3)
    assert len(blocks) == 12 and {len(b) for b in blocks} == {9}
    runs = []
    for parallelism in (1, 3):
        backend = _InFlight(SimulatedOracle(OracleConfig(truth, 0.3, 3)))
        resolver = Resolver(
            records, backend, config=SetConfig(seed=3), embeddings=emb,
            parallelism=parallelism,
        )
        partition, ledger, report = resolver.resolve(blocks)
        counters = report.as_dict()
        counters.pop("elapsed_s")
        counters["ledger"].pop("wall_time")
        runs.append((backend.peak, _partition_digest(partition), counters))
        assert ledger.api_calls == backend.calls
    (peak_1, digest_1, counters_1), (peak_3, digest_3, counters_3) = runs
    assert (peak_1, peak_3) == (1, 3)
    assert digest_1 == digest_3 and counters_1 == counters_3
    assert counters_1["repaired"] + counters_1["regenerations"] > 0


def test_replies_reach_the_guardrail_as_they_arrive(monkeypatch):
    """With one worker, each set is checked as soon as its prompt's reply
    arrives, before the round's next prompt is sent."""
    records, truth = generate_dataset(48, 3, seed=4)
    emb = planted_embeddings(truth, noise=0.05, seed=4)
    events = []
    oracle = SimulatedOracle(OracleConfig(truth, 0.0, 4))
    check = engine.mdg_check

    class Calling:
        def complete(self, prompt, record_sets):
            events.append("call")
            return oracle.complete(prompt, record_sets)

    def checking(clustering, sims):
        events.append("check")
        return check(clustering, sims)

    monkeypatch.setattr(engine, "mdg_check", checking)
    resolver = Resolver(records, Calling(), config=SetConfig(seed=4), embeddings=emb)
    resolver.resolve(_entity_blocks(records, truth, 4))
    assert events[:3] == ["call", "check", "call"]


def test_a_failed_call_leaves_no_worker_thread():
    """A backend that gives up on one set of a multi-set round raises out of
    resolve(), and the round's pool is shut down on the way: no worker
    thread is left running."""
    records, emb, block, oracle = _noisy_block()
    backend = _InFlight(oracle, fail="b0.L0.0002")
    resolver = Resolver(
        records, backend, config=SetConfig(seed=1), embeddings=emb, parallelism=3
    )
    before = threading.active_count()
    with pytest.raises(ProviderUnavailable, match="b0.L0.0002"):
        resolver.resolve([block])
    assert threading.active_count() == before
    assert backend.calls >= 3


def test_elapsed_time_is_wall_clock_not_summed_latency():
    """report.elapsed_s is the time resolve() took. With three calls in
    flight at once, the ledger's summed call latency exceeds it."""
    records, truth = generate_dataset(6, 5, seed=1)
    emb = planted_embeddings(truth, noise=0.05, seed=1)
    block = Block("b0", tuple(sorted(records)))
    backend = _InFlight(SimulatedOracle(OracleConfig(truth, 0.0, 1)), latency_s=0.1)
    resolver = Resolver(records, backend, embeddings=emb, parallelism=3)
    start = time.monotonic()
    _, ledger, report = resolver.resolve([block])
    took = time.monotonic() - start
    assert report.level_set_counts[0] >= 3 and backend.peak == 3
    assert 0 < report.elapsed_s <= took
    assert report.as_dict()["elapsed_s"] == report.elapsed_s
    assert ledger.wall_time > report.elapsed_s


class _Adversary:
    """A backend that answers each prompt from its set id alone: every member
    apart ("singletons"), all in one group ("one-group"), or a random
    partition ("random"). "poisoned" answers unparseable text for every
    prompt that holds record ``poisoned`` and for about 40% of the rest, so
    the gateway falls back and that record's pairs never settle, and a
    random partition otherwise."""

    def __init__(self, kind, seed, poisoned=None):
        self.kind, self.seed, self.poisoned = kind, seed, poisoned

    def complete(self, prompt, record_sets):
        (rs,) = record_sets
        rng = random.Random(f"{self.seed}:{rs.set_id}")
        n = len(rs)
        if self.kind == "poisoned" and (
            rng.random() < 0.4 or any(self.poisoned in node.members for node in rs.members)
        ):
            return "no labels here", None
        if self.kind == "singletons":
            labels = range(n)
        elif self.kind == "one-group":
            labels = [0] * n
        else:
            k = rng.randint(1, n)
            labels = [rng.randrange(k) for _ in range(n)]
        groups: dict[int, list[str]] = {}
        for pos, label in enumerate(labels):
            groups.setdefault(label, []).append(f"R{pos + 1}")
        return "\n".join(",".join(g) for g in groups.values()), None


def _unsettled(store, ids):
    """Pairs of the entities of ``ids`` not yet settled: distinct roots, no
    cannot-link."""
    roots = sorted({store.root(rid) for rid in ids})
    return sum(not store.cannot_link(a, b) for a, b in itertools.combinations(roots, 2))


class TestTermination:
    """Each block's hierarchy stops by proof, under any backend. Every asked
    set of two or more members holds an unsettled pair, and a reply that did
    not fall back settles every pair in its set, so a block's count of
    unsettled pairs falls on every round in which such a set got such a
    reply.
    A round without one ends merging or the sweep, so a block has at most 3
    such rounds (level 0, the last merge round, the last sweep wave) and at
    most C(n, 2) + 3 rounds in all. The round budget raises past that, so a
    hierarchy that would loop fails instead of hanging."""

    @pytest.mark.parametrize("kind", ["singletons", "one-group", "random", "poisoned"])
    @pytest.mark.parametrize("layout", ["lsh", "one-block"])
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16))
    def test_unsettled_pairs_fall_every_answered_round(self, kind, layout, seed):
        records, _ = generate_dataset(20, 4, seed=seed)
        index = SimilarityIndex(records)
        if layout == "lsh":
            blocks = make_blocks(
                "lsh", records, index.token_sets, index.embeddings,
                BlockingParams(b_t=0.2, seed=seed),
            )
            config = SetConfig(seed=seed)
        else:
            blocks = [Block("b0", tuple(sorted(records)))]
            config = SetConfig(b_t=0.1, seed=seed)
        poisoned = random.Random(seed).choice(sorted(records))
        resolver = Resolver(
            records, _Adversary(kind, seed, poisoned), config=config, index=index
        )
        block_of = {rid: b.block_id for b in blocks for rid in b.members}
        members = {b.block_id: b.members for b in blocks}
        budget = {b.block_id: math.comb(len(b), 2) + 3 for b in blocks}
        rounds = dict.fromkeys(members, 0)
        idle = dict.fromkeys(members, 0)
        ask = Resolver._round

        def counting(self, steps):
            ids = [block_of[step[0][0].members[0].representative] for step in steps]
            for b in ids:
                rounds[b] += 1
                if rounds[b] > budget[b]:
                    raise AssertionError(f"block {b} ran past its round budget")
            for rs, _ in itertools.chain(*steps):
                reps = [node.representative for node in rs.members]
                assert len(reps) < 2 or _unsettled(self.store, reps), rs.set_id
            before = [_unsettled(self.store, members[b]) for b in ids]
            answered = ask(self, steps)
            for b, was, done in zip(ids, before, answered):
                if any(len(rs) >= 2 and not engine._is_fallback(c) for rs, c in done):
                    assert _unsettled(self.store, members[b]) < was, b
                else:
                    idle[b] += 1
                    assert idle[b] <= 3, b
            return answered

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Resolver, "_round", counting)
            partition, _, _ = resolver.resolve(blocks)
        partition.validate(records)
        assert any(rounds.values())
