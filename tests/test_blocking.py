import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erset.blocking import (
    THRESHOLD_GRID,
    Block,
    BlockingParams,
    NoValidationData,
    _band_buckets,
    _components,
    filter_block,
    lsh_block,
    make_blocks,
    tune_threshold,
)
from erset import blocking, similarity
from erset.metrics import pairwise_f1
from erset.model import Attribute, ConstraintStore, Record
from erset.similarity import (
    SimilarityConfig,
    SimilarityIndex,
    ZeroVector,
    cosine,
    cosine_blocks,
    jaccard,
)
from erset.synth import generate_dataset, planted_embeddings

from .fakes import TableIndex


def _assert_disjoint_cover(blocks, ids):
    seen = [rid for b in blocks for rid in b.members]
    assert sorted(seen) == sorted(ids)


def test_params_validation():
    with pytest.raises(ValueError):
        BlockingParams(method="sorted-neighborhood")
    with pytest.raises(ValueError):
        BlockingParams(b_t=0.0)


@pytest.mark.parametrize("k", [0, -1])
def test_k_candidates_below_one_is_rejected(k):
    """0 would leave every record its own block, and a negative value would
    drop partners by slicing."""
    with pytest.raises(ValueError, match="k_candidates"):
        BlockingParams(k_candidates=k)


class TestFilterBlock:
    def test_joins_similar_token_sets(self):
        tokens = {
            "a1": {"ada", "lovelace", "london"},
            "a2": {"ada", "lovelace", "londn"},
            "b1": {"grace", "hopper", "arlington"},
        }
        blocks = filter_block(tokens, BlockingParams(method="filter", b_t=0.4))
        _assert_disjoint_cover(blocks, tokens)
        by_member = {rid: b.block_id for b in blocks for rid in b.members}
        assert by_member["a1"] == by_member["a2"]
        assert by_member["a1"] != by_member["b1"]

    def test_matches_bruteforce_jaccard(self):
        records, _ = generate_dataset(10, 3, seed=11)
        tokens = {
            rid: {a.value for a in r.attributes if a.value}
            for rid, r in records.items()
        }
        t = 0.3
        blocks = filter_block(tokens, BlockingParams(method="filter", b_t=t))
        by_member = {rid: b.block_id for b in blocks for rid in b.members}
        # every pair at or above threshold must land in the same block
        for a, b in itertools.combinations(sorted(tokens), 2):
            if jaccard(tokens[a], tokens[b]) >= t:
                assert by_member[a] == by_member[b]

    def test_empty_token_sets_become_singletons(self):
        tokens = {"a": set(), "b": {"x"}}
        blocks = filter_block(tokens, BlockingParams(method="filter", b_t=0.5))
        _assert_disjoint_cover(blocks, tokens)
        assert all(len(b) == 1 for b in blocks)

    @pytest.mark.parametrize("b_t, size", [(0.14, 50), (0.28, 25), (0.56, 25)])
    def test_subset_at_exactly_b_t_shares_a_block(self, b_t, size):
        # the subset's Jaccard is its share of the set, b_t exactly, while
        # b_t * size rounds above the subset's size: a length filter
        # min(|a|, |b|) < b_t * max(|a|, |b|) would drop the pair
        whole = {f"t{k:02d}" for k in range(size)}
        part = set(sorted(whole)[: round(b_t * size)])
        assert jaccard(whole, part) == b_t
        assert len(part) < b_t * size
        params = BlockingParams(method="filter", b_t=b_t)
        blocks = filter_block({"a": whole, "b": part}, params)
        assert blocks == [Block("b00000", ("a", "b"))]

    @pytest.mark.parametrize(
        "k, members", [(1, [("a", "b"), ("c", "d")]), (2, [("a", "b", "c", "d")])]
    )
    def test_k_candidates_caps_each_records_partners(self, k, members):
        # a and b are twins, as are c and d; across the pairs Jaccard is 1/3,
        # so one partner each keeps only the twins
        tokens = {"a": {"x", "y"}, "b": {"x", "y"}, "c": {"y", "z"}, "d": {"y", "z"}}
        params = BlockingParams(method="filter", b_t=0.3, k_candidates=k)
        assert [b.members for b in filter_block(tokens, params)] == members


class TestLshBlock:
    def test_empty(self):
        assert lsh_block({}, BlockingParams()) == []

    def test_recall_and_precision_vs_bruteforce(self):
        _, truth = generate_dataset(40, 5, seed=7)
        emb = planted_embeddings(truth, noise=0.02, seed=7)
        params = BlockingParams(b_t=0.5, seed=7)
        blocks = lsh_block(emb, params)
        _assert_disjoint_cover(blocks, emb)
        pred = {rid: b.block_id for b in blocks for rid in b.members}
        tp = fp = fn = 0
        for a, b in itertools.combinations(sorted(emb), 2):
            similar = cosine(emb[a], emb[b]) >= params.b_t
            together = pred[a] == pred[b]
            tp += similar and together
            fp += together and not similar
            fn += similar and not together
        assert tp / (tp + fn) >= 0.95
        assert tp / (tp + fp) >= 0.95

    def test_deterministic(self):
        _, truth = generate_dataset(10, 3, seed=3)
        emb = planted_embeddings(truth, noise=0.02, seed=3)
        a = lsh_block(emb, BlockingParams(seed=5))
        b = lsh_block(emb, BlockingParams(seed=5))
        assert a == b


def _reference_components(record_ids, pairs):
    """Blocks as a union-find over id pairs, numbered in order of their
    smallest member id."""
    store = ConstraintStore(record_ids)
    for a, b in sorted(pairs):
        store.merge(a, b)
    return [
        Block(block_id=f"b{i:05d}", members=tuple(members))
        for i, (_, members) in enumerate(sorted(store.components().items()))
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            if n
            else st.just([]),
        )
    )
)
def test_components_match_union_find(case):
    # ids sort in a different order from their numbers; pairs may repeat,
    # point either way, loop on one record or leave records isolated
    n, pairs = case
    ids = sorted(f"r{k}" for k in range(n))
    ia = [a for a, _ in pairs]
    ib = [b for _, b in pairs]
    named = [(ids[a], ids[b]) for a, b in pairs]
    assert _components(ids, ia, ib) == _reference_components(ids, named)


def test_components_of_no_records_and_no_pairs():
    assert _components([], [], []) == []
    assert _components(["a", "b"], [], []) == [
        Block("b00000", ("a",)),
        Block("b00001", ("b",)),
    ]


def _reference_lsh_block(embeddings, params):
    """LSH blocking as a plain loop: bucket rows per band by their bit
    bytes, collect every within-bucket pair, keep it when cosine() >= b_t."""
    ids = sorted(embeddings)
    if not ids:
        return []
    dim = len(next(iter(embeddings.values())))
    rng = np.random.default_rng(params.seed)
    planes = rng.standard_normal((params.lsh_planes, dim))
    bits = np.array([embeddings[rid] for rid in ids]) @ planes.T > 0
    rows_per_band = params.lsh_planes // params.lsh_bands
    candidates = set()
    for band in range(params.lsh_bands):
        lo = band * rows_per_band
        buckets = {}
        for i in range(len(ids)):
            buckets.setdefault(bits[i, lo : lo + rows_per_band].tobytes(), []).append(i)
        for bucket in buckets.values():
            for x, y in itertools.combinations(bucket, 2):
                candidates.add((ids[x], ids[y]))
    kept = [
        (a, b)
        for a, b in candidates
        if cosine(embeddings[a], embeddings[b]) >= params.b_t
    ]
    return _reference_components(ids, kept)


def _reference_filter_block(token_sets, params):
    """Filter blocking as a plain loop: every pair that shares a token and
    whose jaccard() is >= b_t, the top k_candidates per record by (-sim, id),
    then components."""
    ids = sorted(token_sets)
    scored = {rid: [] for rid in ids}
    for a, b in itertools.combinations(ids, 2):
        if token_sets[a] & token_sets[b]:
            sim = jaccard(token_sets[a], token_sets[b])
            if sim >= params.b_t:
                scored[a].append((-sim, b))
                scored[b].append((-sim, a))
    kept = [
        (rid, other)
        for rid in ids
        for _, other in sorted(scored[rid])[: params.k_candidates]
    ]
    return _reference_components(ids, kept)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.frozensets(st.sampled_from("abcdefg"), max_size=5), max_size=14),
    st.sampled_from([0.14, 0.2, 0.25, 0.28, 1 / 3, 0.4, 0.5, 0.56, 0.6, 2 / 3, 0.8])
    | st.floats(0.01, 0.99),
    st.sampled_from([1, 2, 3, 50]),
    st.sampled_from([1, 5, 1 << 19]),
)
def test_filter_block_matches_reference(sets, b_t, k, budget):
    # a seven-token alphabet makes ties and empty sets common; ids sort in
    # a different order from their numbers; budgets of 1 or 5 scores run
    # stripes of one row, or of a few on inputs of at most five records
    tokens = {f"r{n}": set(ts) for n, ts in enumerate(sets)}
    params = BlockingParams(method="filter", b_t=b_t, k_candidates=k)
    with mock.patch.object(similarity, "_VERIFY_BUDGET", budget):
        assert filter_block(tokens, params) == _reference_filter_block(tokens, params)


def test_filter_block_runs_in_row_stripes(monkeypatch):
    # a budget of 20 scores over 7 records is stripes of 2 rows: 4 products
    records, _ = generate_dataset(7, 1, seed=2)
    tokens = SimilarityIndex(records).token_sets
    params = BlockingParams(method="filter", b_t=0.3)
    expected = filter_block(tokens, params)
    rows = []
    real = similarity.csr_array

    class Spy(real):
        def __matmul__(self, other):
            rows.append(self.shape[0])
            return super().__matmul__(other)

    monkeypatch.setattr(similarity, "csr_array", Spy)
    monkeypatch.setattr(similarity, "_VERIFY_BUDGET", 20)
    assert filter_block(tokens, params) == expected
    assert rows == [2, 2, 2, 1]


def _tfidf_embeddings(n_entities, seed):
    records, _ = generate_dataset(n_entities, 5, typo_rate=0.2, seed=seed)
    return SimilarityIndex(records).embeddings


class TestLshMatchesReference:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("b_t", [0.2, 0.5, 0.8])
    def test_tfidf_blocks(self, seed, b_t):
        emb = _tfidf_embeddings(80, seed)  # 400 records
        params = BlockingParams(b_t=b_t, seed=seed)
        assert lsh_block(emb, params) == _reference_lsh_block(emb, params)

    @pytest.mark.parametrize(
        "planes, bands",
        [
            (16, 8),  # 2-bit bands: large buckets of many sizes
            (8, 8),  # 1-bit bands, as many bands as planes
            (130, 2),  # 65-bit bands, wider than a 64-bit word
        ],
    )
    def test_band_shapes(self, planes, bands):
        emb = _tfidf_embeddings(60, 3)
        params = BlockingParams(b_t=0.4, lsh_planes=planes, lsh_bands=bands, seed=3)
        assert lsh_block(emb, params) == _reference_lsh_block(emb, params)

    def test_more_bands_than_planes_rejected(self):
        # the bands past the last plane would be empty, one bucket of all
        # records, and make every pair a candidate
        with pytest.raises(ValueError, match="lsh_bands"):
            BlockingParams(lsh_planes=4, lsh_bands=8)

    @pytest.mark.parametrize("width", [0, 1, 64, 65])
    def test_band_buckets_tell_every_bit(self, width):
        # rows 1..width each differ from row 0 in one bit; the last row
        # repeats row 0, so the only bucket is rows (0, n-1)
        n = width + 2
        band = np.zeros((n, width), dtype=bool)
        band[np.arange(1, width + 1), np.arange(width)] = True
        assert [rows.tolist() for rows in _band_buckets(band)] == [[[0, n - 1]]]

    def test_band_buckets_stack_equal_sizes(self):
        band = np.array([[1], [0], [1], [0], [1], [0], [1]], dtype=bool)
        band = np.c_[band, np.arange(7) >= 4]
        # rows with bits (1,0): 0 2; (0,0): 1 3; (0,1): 5; (1,1): 4 6
        stacks = [rows.tolist() for rows in _band_buckets(band)]
        assert stacks == [[[1, 3], [0, 2], [4, 6]]]

    def test_striped_buckets(self, monkeypatch):
        # 1-bit bands put about half the records in each bucket; a budget
        # below one bucket's block verifies every bucket in row stripes
        # 300 records, buckets of 92 to 208; rows scaled off unit norm, which
        # changes no bit and no bucket, so that the norms must be read right
        emb = _tfidf_embeddings(60, 5)
        scale = np.random.default_rng(5).uniform(0.5, 2.0, len(emb))
        emb = {rid: v * c for (rid, v), c in zip(emb.items(), scale)}
        params = BlockingParams(b_t=0.3, lsh_planes=8, lsh_bands=8, seed=5)
        expected = _reference_lsh_block(emb, params)
        dim = len(next(iter(emb.values())))
        calls = []

        def counted(a, b, na, nb):
            calls.append(a.shape[:-1])  # (buckets, stripe rows)
            return cosine_blocks(a, b, na, nb)

        monkeypatch.setattr(similarity, "cosine_blocks", counted)
        # buckets of up to 150 rows whole, larger ones in 2 to 6 stripes;
        # then every row a stripe of its own
        for budget in (150 * (dim + 150), 1):
            calls.clear()
            monkeypatch.setattr(similarity, "_VERIFY_BUDGET", budget)
            assert lsh_block(emb, params) == expected
            assert len(calls) > 16  # more kernel calls than buckets
        assert calls == [(1, 1)] * len(calls)

    def test_striped_bucket_zero_row_raises(self, monkeypatch):
        # the zero row hashes to all-zero bits and shares its bucket with
        # the six rows whose bits are all zero too; every bucket row is a
        # stripe of its own
        monkeypatch.setattr(similarity, "_VERIFY_BUDGET", 1)
        rng = np.random.default_rng(0)
        params = BlockingParams(lsh_planes=2, lsh_bands=2)
        planes = np.random.default_rng(params.seed).standard_normal((2, 8))
        emb = {}
        while len(emb) < 6:
            v = rng.standard_normal(8)
            if not (planes @ v > 0).any():
                emb[f"r{len(emb)}"] = v
        emb["z"] = np.zeros(8)
        with pytest.raises(ZeroVector):
            lsh_block(emb, params)

    def test_zero_vector_candidate_raises(self):
        emb = {"a": np.zeros(8), "b": np.zeros(8), "c": np.ones(8)}
        with pytest.raises(ZeroVector):
            _reference_lsh_block(emb, BlockingParams())
        with pytest.raises(ZeroVector):
            lsh_block(emb, BlockingParams())

    def test_cosine_equal_to_b_t_is_kept(self):
        # 3/5 rounds to the same double as 0.6; 1-bit bands share a bucket
        emb = {"a": np.array([1.0, 0.0, 0.0]), "b": np.array([3.0, 4.0, 0.0])}
        params = BlockingParams(b_t=0.6, lsh_planes=8, lsh_bands=8)
        assert cosine(emb["a"], emb["b"]) == params.b_t
        blocks = lsh_block(emb, params)
        assert blocks == _reference_lsh_block(emb, params)
        assert blocks == [Block("b00000", ("a", "b"))]

    def test_zero_and_one_records(self):
        params = BlockingParams()
        one = {"a": np.ones(8)}
        assert lsh_block({}, params) == _reference_lsh_block({}, params) == []
        assert lsh_block(one, params) == _reference_lsh_block(one, params)
        assert lsh_block(one, params) == [Block("b00000", ("a",))]

    def test_all_buckets_singletons(self):
        # -v hashes to the complement of v's bits, so no band bucket is shared
        v = np.random.default_rng(0).standard_normal(16)
        emb = {"a": v, "b": -v}
        params = BlockingParams(b_t=0.1)
        blocks = lsh_block(emb, params)
        assert blocks == _reference_lsh_block(emb, params)
        assert [b.members for b in blocks] == [("a",), ("b",)]


class TestTuneThreshold:
    def _sim_table(self, truth, hi, lo):
        return TableIndex(
            {
                (a, b): hi if truth[a] == truth[b] else lo
                for a, b in itertools.combinations(sorted(truth), 2)
            }
        )

    def test_picks_separating_threshold(self):
        truth = {"a": "x", "b": "x", "c": "y", "d": "y"}
        best = tune_threshold(sorted(truth), self._sim_table(truth, 0.6, 0.1), truth)
        # any threshold in (0.1, 0.6] is perfect; ties break to the smallest
        assert best == pytest.approx(0.15)

    def test_all_zero_f1_returns_max(self):
        truth = {"a": "x", "b": "y"}  # no positive pair anywhere
        best = tune_threshold(sorted(truth), TableIndex(default=0.0), truth)
        assert best == pytest.approx(0.95)

    def test_missing_labels_raise(self):
        with pytest.raises(NoValidationData):
            tune_threshold(["a", "b"], TableIndex(default=0.5), {"a": "x"})
        with pytest.raises(NoValidationData):
            tune_threshold([], TableIndex(default=0.5), {})


def _reference_tune_threshold(ids, index, truth):
    """tune_threshold over the whole matrix: the components of the upper
    triangle's pairs at or above each grid threshold, best F1 first, then
    the smaller threshold."""
    ids = sorted(ids)
    lo, hi = np.triu_indices(len(ids), 1)
    sims = index.sims(ids)[lo, hi]
    truth_sub = {rid: truth[rid] for rid in ids}
    best_t, best_f1 = None, 0.0
    for t in THRESHOLD_GRID:
        keep = sims >= t
        blocks = _components(ids, lo[keep], hi[keep])
        pred = {rid: block.block_id for block in blocks for rid in block.members}
        _, _, f1 = pairwise_f1(pred, truth_sub)
        if f1 > best_f1 + 1e-12:
            best_t, best_f1 = t, f1
    if best_t is None:
        return THRESHOLD_GRID[-1]
    return best_t


class _SimsSpy:
    """An index whose sims calls record the number of values they return."""

    def __init__(self, index):
        self.index = index
        self.sizes = []

    def sims(self, ids, others=None):
        values = self.index.sims(ids, others)
        self.sizes.append(values.size)
        return values


# every grid threshold, one ulp either side of it, and values outside the grid
_EDGE_SIMS = sorted(
    {v for t in THRESHOLD_GRID for v in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0))}
    | {0.0, 0.01, 0.12, 0.97, 1.0}
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from("xyz"), min_size=n, max_size=n),
            st.lists(
                st.sampled_from(_EDGE_SIMS),
                min_size=n * (n - 1) // 2,
                max_size=n * (n - 1) // 2,
            ),
        )
    ),
    st.sampled_from([1, 5, 1 << 19]),
)
def test_tune_threshold_matches_reference(case, budget):
    # a few labels and values drawn from a short list make ties, repeated
    # similarities and pairs at exactly a threshold common; ids sort in a
    # different order from their numbers; budgets of 1 or 5 values run
    # stripes of one row, or of a few on inputs of at most five records
    labels, values = case
    ids = [f"r{k}" for k in range(len(labels))]
    truth = dict(zip(ids, labels))
    index = TableIndex(dict(zip(itertools.combinations(sorted(ids), 2), values)))
    with mock.patch.object(similarity, "_VERIFY_BUDGET", budget):
        assert tune_threshold(ids, index, truth) == _reference_tune_threshold(
            ids, index, truth
        )


def _tokenless_index(measure):
    """A 60-record index with two records whose every value is empty, under
    given planted embeddings: Jaccard scores the two 1.0 with each other."""
    records, truth = generate_dataset(12, 5, seed=4)
    for rid in ("q1", "q2"):
        records[rid] = Record(rid, (Attribute("name", ""), Attribute("city", "")))
        truth[rid] = "q"
    embeddings = planted_embeddings(truth, noise=0.3, seed=4)
    index = SimilarityIndex(records, SimilarityConfig(measure=measure), embeddings)
    return index, truth


@pytest.mark.parametrize("measure", ["cosine", "jaccard"])
@pytest.mark.parametrize("budget", [1, 37, 1 << 19])
def test_tune_threshold_matches_reference_on_real_indexes(measure, budget, monkeypatch):
    records, truth = generate_dataset(20, 4, typo_rate=0.3, seed=6)
    cases = [(SimilarityIndex(records, SimilarityConfig(measure=measure)), truth)]
    cases.append(_tokenless_index(measure))
    if measure == "jaccard":
        assert cases[1][0].sim("q1", "q2") == 1.0
    monkeypatch.setattr(similarity, "_VERIFY_BUDGET", budget)
    for index, truth in cases:
        ids = sorted(truth)
        assert tune_threshold(ids, index, truth) == _reference_tune_threshold(
            ids, index, truth
        )


@pytest.mark.parametrize("budget, rows", [(20, 2), (81, 9), (100, 9)])
def test_tune_threshold_reads_stripes_within_the_budget(budget, rows, monkeypatch):
    # 9 records: a budget of 20 values is stripes of 2 rows against all 9
    _, truth = generate_dataset(3, 3, seed=2)
    spy = _SimsSpy(TableIndex(default=0.5))
    monkeypatch.setattr(similarity, "_VERIFY_BUDGET", budget)
    tune_threshold(sorted(truth), spy, truth)
    assert spy.sizes and max(spy.sizes) <= budget
    assert max(spy.sizes) == rows * len(truth)


def test_one_budget_sizes_every_blocking_read(monkeypatch):
    # only similarity's budget is patched, and the filter's products, the
    # sweep's sims stripes and LSH's kernel calls all keep within it: 300
    # values are stripes of 8 of the 36 records, and an 18-row bucket of
    # 8-dim rows is stripes of (300 - 18 * 8) // 18 = 8 rows
    records, truth = generate_dataset(12, 3, typo_rate=0.2, seed=3)
    index = SimilarityIndex(records, embeddings=planted_embeddings(truth, 8, 0.5, 3))
    budget = 300
    monkeypatch.setattr(similarity, "_VERIFY_BUDGET", budget)

    products = []

    class Spy(similarity.csr_array):
        def __matmul__(self, other):
            out = super().__matmul__(other)
            products.append(out.shape)
            return out

    monkeypatch.setattr(similarity, "csr_array", Spy)
    filter_block(index.token_sets, BlockingParams(method="filter", b_t=0.3))
    assert products == [(8, 36)] * 4 + [(4, 36)]

    spy = _SimsSpy(index)
    tune_threshold(sorted(truth), spy, truth)
    assert spy.sizes == [8 * 36] * 4 + [4 * 36]

    calls = []

    def counted(a, b, na, nb):
        block = cosine_blocks(a, b, na, nb)
        calls.append((a.shape[-2], b.shape[-2], b.size + block.size))
        return block

    monkeypatch.setattr(similarity, "cosine_blocks", counted)
    lsh_block(index.embeddings, BlockingParams(b_t=0.3, lsh_planes=8, lsh_bands=8))
    assert max(held for _, _, held in calls) <= budget
    assert any(rows < columns for rows, columns, _ in calls)  # a striped bucket
    assert not hasattr(blocking, "_VERIFY_BUDGET")


def test_make_blocks_none_and_unknown():
    records, _ = generate_dataset(3, 1, seed=0)
    blocks = make_blocks("none", records, {}, {}, BlockingParams())
    assert len(blocks) == 1 and len(blocks[0]) == 3
    with pytest.raises(ValueError):
        make_blocks("minhash", records, {}, {}, BlockingParams())


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100))
def test_blocks_always_partition_the_input(seed):
    _, truth = generate_dataset(6, 2, seed=seed)
    emb = planted_embeddings(truth, noise=0.05, seed=seed)
    blocks = lsh_block(emb, BlockingParams(seed=seed))
    _assert_disjoint_cover(blocks, truth)
