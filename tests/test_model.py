import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erset.model import (
    Attribute,
    ClusterNode,
    ConstraintConflict,
    ConstraintStore,
    CostLedger,
    Partition,
    Record,
    RecordSet,
    SetClustering,
    SetConfig,
    UniverseMismatch,
    estimate_tokens,
)

from .fakes import ReferenceStore


def test_record_rejects_duplicate_attribute_names():
    with pytest.raises(ValueError):
        Record("r1", (Attribute("a", "1"), Attribute("a", "2")))


def test_cluster_node_invariants():
    with pytest.raises(ValueError):
        ClusterNode(frozenset(), "a")
    with pytest.raises(ValueError):
        ClusterNode(frozenset(["a"]), "b")
    node = ClusterNode.singleton("a", origin_set="s0")
    assert node.members == frozenset(["a"])
    assert node.representative == "a"
    assert node.origin_set == "s0"


def test_record_set_rejects_overlap():
    a = ClusterNode.singleton("a")
    also_a = ClusterNode(frozenset(["a", "b"]), "a")
    with pytest.raises(ValueError):
        RecordSet("s", (a, also_a))
    assert len(RecordSet("s", (a,))) == 1


def _set_of(n):
    return RecordSet("s", tuple(ClusterNode.singleton(f"r{i}") for i in range(n)))


def test_set_clustering_validate():
    rs = _set_of(3)
    SetClustering("s", ((0, 1), (2,))).validate(rs)
    with pytest.raises(ValueError):
        SetClustering("s", ((0, 1),)).validate(rs)
    with pytest.raises(ValueError):
        SetClustering("s", ((0, 1), (1, 2))).validate(rs)


def test_set_clustering_flags_and_singletons():
    c = SetClustering("s", ((0,), (1,)))
    flagged = c.with_flag("fallback-singletons")
    assert flagged.flags == ("fallback-singletons",)
    assert c.flags == ()


def test_partition_validate_and_labels():
    p = Partition([ClusterNode(frozenset(["a", "b"]), "a"), ClusterNode.singleton("c")])
    p.validate(["a", "b", "c"])
    assert p.as_labels() == {"a": "a", "b": "a", "c": "c"}
    with pytest.raises(UniverseMismatch):
        p.validate(["a", "b"])
    overlapping = Partition(
        [ClusterNode.singleton("a"), ClusterNode(frozenset(["a", "b"]), "b")]
    )
    with pytest.raises(ValueError):
        overlapping.validate(["a", "b"])


def test_set_config_validation():
    with pytest.raises(ValueError):
        SetConfig(set_size=0)
    with pytest.raises(ValueError):
        SetConfig(set_size=4, set_diversity=5)
    with pytest.raises(ValueError):
        SetConfig(max_regen=-1)
    cfg = SetConfig()
    assert (cfg.set_size, cfg.set_diversity) == (9, 4)


def test_set_size_below_two_is_rejected():
    """A set of one record asks nothing: the run would make no call."""
    with pytest.raises(ValueError, match="set_size"):
        SetConfig(set_size=1, set_diversity=1)
    assert SetConfig(set_size=2, set_diversity=1).set_size == 2


@given(st.text(max_size=200))
def test_estimate_tokens_is_ceil_quarter(text):
    assert estimate_tokens(text) == math.ceil(len(text) / 4)


def test_cost_ledger_accumulates():
    ledger = CostLedger(price_per_mtoken_in=3.0, price_per_mtoken_out=15.0)
    ledger.record(1000, 100)
    ledger.record(500, 50)
    ledger.add_wall_time(1.5)
    assert ledger.api_calls == 2
    assert ledger.tokens_in == 1500
    assert ledger.tokens_out == 150
    assert ledger.estimated_cost == pytest.approx((1500 * 3 + 150 * 15) / 1e6)
    snap = ledger.snapshot()
    assert snap["api_calls"] == 2 and snap["wall_time"] == pytest.approx(1.5)
    with pytest.raises(ValueError):
        ledger.record(-1, 0)


_POOL = [f"n{i}" for i in range(6)]
_ID = st.sampled_from(_POOL + ["zz"])
# a third of the operations merge, a third cannot-link, a third query
_OP = st.one_of(
    st.just("merge"),
    st.just("add_cannot_link"),
    st.sampled_from(
        ["same_entity", "cannot_link", "root", "has_cannot_links", "components"]
    ),
)


def _outcome(store, op, args):
    """What one store method returns, or the type and message it raises;
    components as an ordered list of items."""
    try:
        out = getattr(store, op)(*args)
    except (KeyError, ConstraintConflict) as exc:
        return type(exc), exc.args[0]
    return "ok", list(out.items()) if op == "components" else out


class TestConstraintStore:
    def test_merge_is_transitive(self):
        store = ConstraintStore(["a", "b", "c"])
        store.merge("a", "b")
        store.merge("b", "c")
        assert store.same_entity("a", "c")

    def test_cannot_link_survives_merge(self):
        store = ConstraintStore(["a", "b", "c", "d"])
        store.add_cannot_link("a", "c")
        store.merge("c", "d")
        assert store.cannot_link("a", "d")
        store.merge("a", "b")
        assert store.cannot_link("b", "c")

    def test_conflicts_raise(self):
        store = ConstraintStore(["a", "b"])
        store.add_cannot_link("a", "b")
        with pytest.raises(ConstraintConflict):
            store.merge("a", "b")
        store2 = ConstraintStore(["a", "b"])
        store2.merge("a", "b")
        with pytest.raises(ConstraintConflict):
            store2.add_cannot_link("a", "b")

    def test_components(self):
        store = ConstraintStore(["a", "b", "c", "d"])
        store.merge("c", "a")
        assert store.components() == {"a": ["a", "c"], "b": ["b"], "d": ["d"]}

    def test_repeated_id_is_one_record(self):
        store = ConstraintStore(["b", "a", "b"])
        assert store.components() == {"b": ["b"], "a": ["a"]}
        store.merge("a", "b")
        assert store.components() == {"a": ["a", "b"]}

    @settings(max_examples=300, deadline=None)
    @given(
        st.permutations(_POOL[1:]),
        st.lists(st.sampled_from(_POOL), max_size=4),
        st.lists(
            st.tuples(_OP, _ID, _ID, st.lists(_ID, max_size=3)),
            min_size=10,
            max_size=60,
        ),
    )
    def test_matches_the_brute_force_store(self, order, repeats, ops):
        """Random merges, cannot-links and queries, replayed on the store
        and on a brute-force one whose roots are other members: the same
        answers, components in the same order, and the same conflicts. A
        root lies in its entity, and an unknown id raises a KeyError that
        names it. The store's ids are n1-n5 in any order, then up to four
        more of n0-n5, repeats included; "zz" is never a record."""
        record_ids = [*order, *repeats]
        store, reference = ConstraintStore(record_ids), ReferenceStore(record_ids)
        for op, a, b, many in ops:
            ids = {"root": [a], "has_cannot_links": many, "components": []}.get(
                op, [a, b]
            )
            args = (many,) if op == "has_cannot_links" else tuple(ids)
            got, want = (_outcome(s, op, args) for s in (store, reference))
            if op == "root" and got[0] == "ok":
                assert want[0] == "ok" and reference.same_entity(a, got[1])
            else:
                assert got == want
            unknown = [r for r in ids if r not in record_ids]
            # has_cannot_links stops at the first entity with a cannot-link
            raises = bool(unknown) and not (
                op == "has_cannot_links"
                and reference.has_cannot_links(ids[: ids.index(unknown[0])])
            )
            assert (got[0] is KeyError) == raises
            if raises:
                assert got[1] == f"unknown record id: {unknown[0]!r}"

    def test_unknown_id(self):
        store = ConstraintStore(["a"])
        with pytest.raises(KeyError):
            store.same_entity("a", "zz")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["merge", "cannot"]),
                st.integers(0, 7),
                st.integers(0, 7),
            ),
            max_size=30,
        )
    )
    def test_never_inconsistent(self, ops):
        """No pair is ever both same-entity and cannot-linked, whatever the
        accepted operation sequence was."""
        ids = [f"n{i}" for i in range(8)]
        store = ConstraintStore(ids)
        for op, i, j in ops:
            if i == j:
                continue
            try:
                if op == "merge":
                    store.merge(ids[i], ids[j])
                else:
                    store.add_cannot_link(ids[i], ids[j])
            except ConstraintConflict:
                pass
        for a in ids:
            for b in ids:
                if a < b and store.same_entity(a, b):
                    assert not store.cannot_link(a, b)
