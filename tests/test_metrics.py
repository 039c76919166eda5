import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erset.metrics import TooFewRecords, acc, ari, contingency, fp_measure, nmi, pairwise_f1
from erset.model import UniverseMismatch

from .oracles import acc_bruteforce, ari_naive, fp_naive, nmi_naive


def _labels(*groups):
    return {rid: i for i, group in enumerate(groups) for rid in group}


IDENTICAL = _labels("ab", "cd")


def test_universe_mismatch():
    with pytest.raises(UniverseMismatch):
        acc({"a": 0}, {"b": 0})


def test_contingency_table():
    table = contingency(_labels("ab", "c"), _labels("a", "bc"))
    assert table.sum() == 3
    assert sorted(table.flatten().tolist()) == [0, 1, 1, 1]


class TestAcc:
    def test_identical(self):
        assert acc(IDENTICAL, IDENTICAL) == 1.0

    def test_singletons_vs_one_cluster(self):
        pred = _labels("a", "b", "c", "d")
        truth = _labels("abcd")
        assert acc(pred, truth) == pytest.approx(0.25)

    def test_two_by_two(self):
        assert acc(_labels("ab", "c"), _labels("a", "bc")) == pytest.approx(2 / 3)


class TestFpMeasure:
    def test_identical(self):
        assert fp_measure(IDENTICAL, IDENTICAL) == 1.0

    def test_singletons_vs_one_cluster(self):
        assert fp_measure(_labels("a", "b", "c", "d"), _labels("abcd")) == pytest.approx(0.4)

    def test_halves(self):
        assert fp_measure(_labels("ab", "cd"), _labels("abcd")) == pytest.approx(
            2 / 3, abs=1e-9
        )


class TestNmi:
    def test_identical(self):
        assert nmi(IDENTICAL, IDENTICAL) == pytest.approx(1.0)

    def test_independent(self):
        assert nmi(_labels("ab", "cd"), _labels("ac", "bd")) == pytest.approx(0.0)

    def test_worked_value(self):
        assert nmi(_labels("abc", "d"), _labels("ab", "cd")) == pytest.approx(
            0.3437, abs=1e-4
        )

    @pytest.mark.parametrize("rows", range(1, 9))
    def test_independent_grids_stay_in_bounds(self, rows):
        """Records on a rows x cols grid, labelled by row and by column: the
        two partitions are independent, and rounding must not take their
        score below 0.0."""
        for cols in range(1, 9):
            cells = [(r, c) for r in range(rows) for c in range(cols)]
            by_row = {f"r{r}.{c}": r for r, c in cells}
            by_col = {f"r{r}.{c}": c for r, c in cells}
            assert 0.0 <= nmi(by_row, by_col) <= 1.0

    def test_degenerate_conventions(self):
        one_cluster = _labels("abcd")
        assert nmi(one_cluster, one_cluster) == 1.0
        assert nmi(one_cluster, _labels("ab", "cd")) == 0.0


class TestAri:
    def test_identical(self):
        assert ari(IDENTICAL, IDENTICAL) == 1.0

    def test_anticorrelated(self):
        assert ari(_labels("ab", "cd"), _labels("ac", "bd")) == pytest.approx(-0.5)

    def test_zero(self):
        assert ari(_labels("abc", "d"), _labels("ab", "cd")) == pytest.approx(0.0)

    def test_degenerate(self):
        singles = _labels("a", "b", "c")
        assert ari(singles, singles) == 1.0
        assert ari(_labels("abc"), _labels("abc")) == 1.0

    def test_too_few(self):
        with pytest.raises(TooFewRecords):
            ari({"a": 0}, {"a": 0})


class TestPairwiseF1:
    def test_identical(self):
        assert pairwise_f1(IDENTICAL, IDENTICAL) == (1.0, 1.0, 1.0)

    def test_all_singletons(self):
        p, r, f1 = pairwise_f1(_labels("a", "b", "c"), _labels("ab", "c"))
        assert (r, f1) == (0.0, 0.0)

    def test_worked_value(self):
        p, r, f1 = pairwise_f1(_labels("ab", "cd"), _labels("abcd"))
        assert p == 1.0
        assert r == pytest.approx(1 / 3)
        assert f1 == pytest.approx(0.5)


def _random_pair(rng, n):
    ids = [f"r{i}" for i in range(n)]
    k1 = rng.randint(1, min(6, n))
    k2 = rng.randint(1, min(6, n))
    pred = {rid: rng.randrange(k1) for rid in ids}
    truth = {rid: rng.randrange(k2) for rid in ids}
    return pred, truth


def _pairwise_f1_loop(pred, truth):
    """Reference: walk every unordered pair of records."""
    tp = fp = fn = 0
    for a, b in combinations(sorted(pred), 2):
        same_pred = pred[a] == pred[b]
        same_truth = truth[a] == truth[b]
        if same_pred and same_truth:
            tp += 1
        elif same_pred:
            fp += 1
        elif same_truth:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def test_matches_reference_implementations():
    """1,000 random partition pairs: optimal-assignment ACC vs exhaustive
    enumeration, FP/NMI/ARI vs naive formula implementations, and pairwise
    F1 exactly equal to a loop over every pair."""
    rng = random.Random(1234)
    for _ in range(1000):
        n = rng.randint(2, 10)
        pred, truth = _random_pair(rng, n)
        assert acc(pred, truth) == pytest.approx(acc_bruteforce(pred, truth), abs=1e-9)
        assert fp_measure(pred, truth) == pytest.approx(fp_naive(pred, truth), abs=1e-9)
        assert nmi(pred, truth) == pytest.approx(nmi_naive(pred, truth), abs=1e-9)
        assert ari(pred, truth) == pytest.approx(ari_naive(pred, truth), abs=1e-9)
        assert pairwise_f1(pred, truth) == _pairwise_f1_loop(pred, truth)


@st.composite
def partition_pairs(draw):
    n = draw(st.integers(2, 9))
    ids = [f"r{i}" for i in range(n)]
    pred = {rid: draw(st.integers(0, 5)) for rid in ids}
    truth = {rid: draw(st.integers(0, 5)) for rid in ids}
    return pred, truth


@settings(max_examples=200)
@given(partition_pairs())
def test_relabeling_invariance(pair):
    pred, truth = pair
    relabeled = {rid: f"x{label}" for rid, label in pred.items()}
    assert acc(pred, truth) == pytest.approx(acc(relabeled, truth))
    assert fp_measure(pred, truth) == pytest.approx(fp_measure(relabeled, truth))
    assert nmi(pred, truth) == pytest.approx(nmi(relabeled, truth))
    assert ari(pred, truth) == pytest.approx(ari(relabeled, truth))


@st.composite
def relabelled_partitions(draw):
    """One random partition under its own labels and under renamed,
    shuffled ones."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(1, n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pred = {f"r{i}": rng.randrange(k) for i in range(n)}
    names = rng.sample(range(k), k)
    return pred, {rid: f"x{names[label]}" for rid, label in pred.items()}


@settings(max_examples=300, deadline=None)
@given(relabelled_partitions())
def test_nmi_of_one_partition_is_exactly_one(pair):
    """Each entropy is an order-free sum, so the mutual information of a
    partition with itself equals its entropy to the last bit."""
    pred, relabelled = pair
    score = nmi(pred, relabelled)
    assert type(score) is float
    assert score == 1.0


@settings(max_examples=200)
@given(partition_pairs())
def test_bounds_and_identity(pair):
    pred, truth = pair
    table = contingency(pred, truth)
    a = acc(pred, truth)
    assert table.max() / len(pred) <= a <= 1.0
    assert 0.0 <= fp_measure(pred, truth) <= 1.0
    assert 0.0 <= nmi(pred, truth) <= 1.0 + 1e-12
    assert -1.0 <= ari(pred, truth) <= 1.0 + 1e-12
    assert acc(pred, pred) == 1.0
    assert fp_measure(pred, pred) == 1.0
