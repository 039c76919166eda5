"""Acceptance suite: one test (or pair) per exit criterion, numbered."""

import itertools
import os
import random
import time

import pytest

from erset.blocking import Block, BlockingParams, lsh_block
from erset.engine import Resolver
from erset.gateway import (
    HttpProvider,
    LlmGateway,
    OracleConfig,
    ProviderConfig,
    SimulatedOracle,
    build_prompt,
)
from erset.metrics import acc, ari, fp_measure, nmi, pairwise_f1
from erset.model import ClusterNode, ConstraintStore, CostLedger, RecordSet, SetConfig
from erset.setbuilder import next_record_set, variation
from erset.similarity import cosine
from erset.synth import generate_dataset, planted_embeddings

from .fakes import embedding_index
from .oracles import acc_bruteforce, ari_naive, fp_naive, nmi_naive


def _resolve_oracle(records, truth, blocks, emb, *, p=0.0, seed=0, config=None,
                    parallelism=1):
    backend = SimulatedOracle(OracleConfig(truth, p, seed))
    return Resolver(
        records,
        backend,
        config=config or SetConfig(seed=seed),
        embeddings=emb,
        parallelism=parallelism,
    ).resolve(blocks)


def _standard_dataset(seed=1):
    """200 records / 40 entities / 5 duplicates each, moderate noise."""
    records, truth = generate_dataset(40, 5, typo_rate=0.1, drop_rate=0.05, seed=seed)
    return records, truth


def test_criterion_01_perfect_oracle_exactness():
    records, truth = _standard_dataset()
    emb = planted_embeddings(truth, noise=0.0, seed=1)
    start = time.monotonic()
    blocks = lsh_block(emb, BlockingParams(method="lsh", b_t=0.5, seed=1))
    partition, ledger, report = _resolve_oracle(records, truth, blocks, emb)
    elapsed = time.monotonic() - start
    labels = partition.as_labels()
    assert acc(labels, truth) == 1.0
    assert fp_measure(labels, truth) == 1.0
    assert nmi(labels, truth) == 1.0
    assert ari(labels, truth) == 1.0
    assert elapsed < 10.0


def test_criterion_02_single_entity_call_count():
    m = 81
    records, truth = generate_dataset(1, m, typo_rate=0.05, seed=2)
    emb = planted_embeddings(truth, noise=0.05, seed=2)
    blocks = [Block("b0", tuple(sorted(records)))]
    partition, ledger, report = _resolve_oracle(records, truth, blocks, emb)
    assert len(partition.clusters) == 1
    assert ledger.api_calls == 10
    assert ledger.api_calls <= -(-m // (9 - 1)) + 1  # ceil(m/(S_s-1)) + 1 = 12


def test_criterion_03_all_distinct_call_count_and_reduction():
    m = 18
    records, truth = generate_dataset(m, 1, seed=3)
    emb = planted_embeddings(truth, noise=0.0, seed=3)
    blocks = [Block("b0", tuple(sorted(records)))]
    partition, ledger, _ = _resolve_oracle(records, truth, blocks, emb)
    labels = partition.as_labels()
    assert acc(labels, truth) == 1.0  # every cross-origin pair resolved
    assert ledger.api_calls <= 12
    assert ledger.api_calls < m * (m - 1) // 2  # 153 pairwise calls

    pairwise_cfg = SetConfig(set_size=2, set_diversity=2, seed=0)
    _, pair_ledger, _ = _resolve_oracle(
        records, truth, blocks, emb, config=pairwise_cfg
    )
    assert pair_ledger.api_calls / ledger.api_calls >= 3.0


def _mdg_ablation_runs(noise=0.1):
    records, truth = _standard_dataset()
    emb = planted_embeddings(truth, noise=noise, seed=1)
    blocks = [Block("b0", tuple(sorted(records)))]
    runs = []
    for seed in range(10):
        row = {}
        for max_regen in (2, 0):
            config = SetConfig(max_regen=max_regen, seed=seed)
            partition, ledger, report = _resolve_oracle(
                records, truth, blocks, emb, p=0.2, seed=seed, config=config
            )
            row[max_regen] = {
                "fp": fp_measure(partition.as_labels(), truth),
                "calls": ledger.api_calls,
                "regenerations": report.guardrail.regenerations,
                "merge_sets": sum(report.level_set_counts[1:]),
            }
        runs.append(row)
    return runs


@pytest.fixture(scope="module")
def mdg_runs():
    return _mdg_ablation_runs()


@pytest.fixture(scope="module")
def mdg_hierarchy_runs():
    """Criterion 04's ablation at planted noise 0.05, where true pairs reach
    b_t: merge rounds and the sweep run, and the guardrail has work to do.
    At noise 0.1 every true pair is below b_t, and level 0 is all there is."""
    return _mdg_ablation_runs(noise=0.05)


def test_criterion_04_mdg_quality(mdg_runs):
    mean_with = sum(r[2]["fp"] for r in mdg_runs) / len(mdg_runs)
    mean_without = sum(r[0]["fp"] for r in mdg_runs) / len(mdg_runs)
    wins = sum(1 for r in mdg_runs if r[2]["fp"] > r[0]["fp"])
    assert mean_with >= mean_without
    assert wins >= 8


def test_criterion_04_regeneration_overhead(mdg_runs):
    extra = sum(r[2]["regenerations"] for r in mdg_runs)
    baseline = sum(r[0]["calls"] for r in mdg_runs)
    assert extra <= 0.15 * baseline


def test_criterion_04_hierarchy_asks_merge_round_sets(mdg_hierarchy_runs):
    assert all(run["merge_sets"] > 0 for r in mdg_hierarchy_runs for run in r.values())


def test_criterion_04_mdg_quality_through_the_hierarchy(mdg_hierarchy_runs):
    test_criterion_04_mdg_quality(mdg_hierarchy_runs)


def test_criterion_04_regeneration_overhead_through_the_hierarchy(
    mdg_hierarchy_runs,
):
    test_criterion_04_regeneration_overhead(mdg_hierarchy_runs)


def test_criterion_05_metric_oracle_equivalence():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 10)
        ids = [f"r{i}" for i in range(n)]
        pred = {rid: rng.randrange(rng.randint(1, 6)) for rid in ids}
        truth = {rid: rng.randrange(rng.randint(1, 6)) for rid in ids}
        assert abs(acc(pred, truth) - acc_bruteforce(pred, truth)) < 1e-9
        assert abs(fp_measure(pred, truth) - fp_naive(pred, truth)) < 1e-9
        assert abs(nmi(pred, truth) - nmi_naive(pred, truth)) < 1e-9
        assert abs(ari(pred, truth) - ari_naive(pred, truth)) < 1e-9

    def labels(*groups):
        return {rid: i for i, g in enumerate(groups) for rid in g}

    assert acc(labels("a", "b", "c", "d"), labels("abcd")) == pytest.approx(0.25)
    assert fp_measure(labels("a", "b", "c", "d"), labels("abcd")) == pytest.approx(0.4)
    assert nmi(labels("abc", "d"), labels("ab", "cd")) == pytest.approx(0.3437, abs=1e-4)
    assert ari(labels("ab", "cd"), labels("ac", "bd")) == pytest.approx(-0.5)


def test_criterion_06_variation_conformance():
    assert variation([3, 3, 3]) == 0.0
    assert variation([2, 4]) == pytest.approx(1 / 3, abs=1e-9)


def test_criterion_07_nrs_conformance():
    truth = {f"r{i:03d}": f"e{i % 4}" for i in range(40)}
    emb = planted_embeddings(truth, noise=0.05, seed=5)
    index = embedding_index(emb)
    ids, _ = next_record_set(sorted(truth), SetConfig(seed=0), index)
    assert len(ids) == 9
    counts = {}
    for rid in ids:
        counts[truth[rid]] = counts.get(truth[rid], 0) + 1
    # floor(9/4) = 2 from each qualifying pre-cluster before filling
    assert all(c >= 2 for c in counts.values())
    assert sorted(counts.values()) == [2, 2, 2, 3]
    adjacent_same = sum(1 for a, b in zip(ids, ids[1:]) if truth[a] == truth[b])
    achievable = len(ids) - len(counts)
    assert adjacent_same >= 0.9 * achievable


def test_criterion_08_hierarchy_shape():
    records, truth = _standard_dataset()
    emb = planted_embeddings(truth, noise=0.0, seed=1)
    # one block so the hierarchy is non-trivial
    blocks = [Block("b0", tuple(sorted(records)))]
    _, _, report = _resolve_oracle(records, truth, blocks, emb)
    counts = report.level_set_counts
    assert 1 <= len(counts) <= 6
    assert all(a > b for a, b in zip(counts, counts[1:]))
    assert counts == report.as_dict()["level_set_counts"]


def test_criterion_09_lsh_recall_precision():
    _, truth = _standard_dataset(seed=7)
    emb = planted_embeddings(truth, noise=0.02, seed=7)
    params = BlockingParams(method="lsh", b_t=0.5, seed=7)
    blocks = lsh_block(emb, params)
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


def test_criterion_10_determinism_under_parallelism():
    records, truth = _standard_dataset()
    emb = planted_embeddings(truth, noise=0.1, seed=1)
    blocks = [Block("b0", tuple(sorted(records)))]
    outputs = []
    for _ in range(2):
        partition, ledger, _ = _resolve_oracle(
            records, truth, blocks, emb, p=0.2, seed=5,
            config=SetConfig(seed=5), parallelism=4,
        )
        lines = sorted(f"{r},{c}" for r, c in partition.as_labels().items())
        counters = (ledger.api_calls, ledger.tokens_in, ledger.tokens_out)
        outputs.append(("\n".join(lines).encode(), counters))
    assert outputs[0] == outputs[1]


def test_criterion_10_determinism_through_the_hierarchy():
    """Criterion 10 at planted noise 0.05, where merge rounds run: sets are
    clustered concurrently at every level, and two runs still agree."""
    records, truth = _standard_dataset()
    emb = planted_embeddings(truth, noise=0.05, seed=1)
    blocks = [Block("b0", tuple(sorted(records)))]
    outputs = []
    for _ in range(2):
        partition, ledger, report = _resolve_oracle(
            records, truth, blocks, emb, p=0.2, seed=5,
            config=SetConfig(seed=5), parallelism=4,
        )
        assert sum(report.level_set_counts[1:]) > 0
        lines = sorted(f"{r},{c}" for r, c in partition.as_labels().items())
        counters = (ledger.api_calls, ledger.tokens_in, ledger.tokens_out)
        shape = (report.level_set_counts, report.final_check_sets, report.guardrail)
        outputs.append(("\n".join(lines).encode(), counters, shape))
    assert outputs[0] == outputs[1]


def test_criterion_11_degenerate_pairwise_equivalence():
    records, truth = generate_dataset(2, 3, seed=9)
    emb = planted_embeddings(truth, seed=9)
    blocks = [Block("b0", tuple(sorted(records)))]
    config = SetConfig(set_size=2, set_diversity=2, seed=0)
    partition, _, _ = _resolve_oracle(records, truth, blocks, emb, config=config)
    labels = partition.as_labels()
    got = sorted(
        sorted(r for r in labels if labels[r] == v) for v in set(labels.values())
    )
    # hand-built pairwise matcher with transitivity/anti-transitivity
    store = ConstraintStore(sorted(records))
    for a, b in itertools.combinations(sorted(records), 2):
        if store.same_entity(a, b) or store.cannot_link(a, b):
            continue
        if truth[a] == truth[b]:
            store.merge(a, b)
        else:
            store.add_cannot_link(a, b)
    assert got == sorted(store.components().values())


@pytest.mark.skipif(
    not (os.environ.get("ER_API_KEY") and os.environ.get("ER_ENDPOINT")),
    reason="live smoke test needs ER_API_KEY and ER_ENDPOINT",
)
def test_criterion_12_live_provider_smoke():
    records, truth = generate_dataset(3, 3, seed=12)
    provider = HttpProvider(
        ProviderConfig(
            endpoint=os.environ["ER_ENDPOINT"],
            model=os.environ.get("ER_MODEL", "gpt-4o-mini"),
        )
    )
    gateway = LlmGateway(provider, records, ledger=CostLedger())
    record_set = RecordSet(
        "live0", tuple(ClusterNode.singleton(rid) for rid in sorted(records))
    )
    clustering = gateway.cluster_records(record_set)
    clustering.validate(record_set)  # exact cover; no quality assertion
