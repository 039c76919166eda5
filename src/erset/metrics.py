"""Clustering quality metrics: ACC, FP-measure, NMI, ARI and pairwise F1.

All functions take two label mappings (record id -> cluster label); cluster
labels are opaque and every metric is invariant under relabeling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import ERError, UniverseMismatch


class TooFewRecords(ERError):
    pass


def _check_universe(pred: dict, truth: dict) -> None:
    if set(pred) != set(truth):
        raise UniverseMismatch("pred and truth cover different record ids")


def contingency(pred: dict, truth: dict) -> np.ndarray:
    """Contingency table t[i][j] = |pred cluster i ∩ truth cluster j|."""
    _check_universe(pred, truth)
    pred_labels = sorted(set(pred.values()), key=str)
    truth_labels = sorted(set(truth.values()), key=str)
    pi = {label: i for i, label in enumerate(pred_labels)}
    ti = {label: j for j, label in enumerate(truth_labels)}
    table = np.zeros((len(pred_labels), len(truth_labels)), dtype=int)
    for rid in pred:
        table[pi[pred[rid]], ti[truth[rid]]] += 1
    return table


def acc(pred: dict, truth: dict) -> float:
    """Fraction correct under the optimal one-to-one cluster assignment."""
    table = contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / len(pred)


def fp_measure(pred: dict, truth: dict) -> float:
    """Harmonic mean of purity and inverse purity."""
    table = contingency(pred, truth)
    n = table.sum()
    purity = float(table.max(axis=1).sum()) / n
    inverse_purity = float(table.max(axis=0).sum()) / n
    if purity == 0.0 or inverse_purity == 0.0:
        return 0.0
    return 2.0 / (1.0 / purity + 1.0 / inverse_purity)


def _entropy(counts: np.ndarray, n: int) -> float:
    """Entropy of the nonzero counts over n, summed with math.fsum: the
    correctly rounded sum, whatever the order of the counts."""
    p = counts[counts > 0] / n
    return -math.fsum((p * np.log(p)).tolist())


def nmi(pred: dict, truth: dict) -> float:
    """Normalized mutual information, natural log.

    Degenerate conventions: 1.0 when both entropies are zero, 0.0 when
    exactly one is. Mutual information is ha + hb - hab, each entropy an
    order-free sum, so one partition under two labelings scores exactly 1.0;
    it is floored at 0.0, which rounding can undershoot for independent
    partitions.
    """
    table = contingency(pred, truth)
    n = int(table.sum())
    ha = _entropy(table.sum(axis=1), n)
    hb = _entropy(table.sum(axis=0), n)
    if ha + hb == 0.0:
        return 1.0
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mi = max(ha + hb - _entropy(table, n), 0.0)
    return 2.0 * mi / (ha + hb)


def _pair_counts(table: np.ndarray) -> tuple[int, int, int]:
    """(pairs together in both, pairs together in pred, pairs together in
    truth) of a contingency table: the sums of C(t, 2) over its cells, its
    row sums and its column sums, in exact integers."""

    def pairs(counts: np.ndarray) -> int:
        return int((counts * (counts - 1) // 2).sum())

    return pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))


def ari(pred: dict, truth: dict) -> float:
    """Adjusted Rand index over the pair-counting contingency table.

    Returns 1.0 in the degenerate cases where the expected index equals the
    maximum index (both all-singletons or both single-cluster).
    """
    table = contingency(pred, truth)
    n = int(table.sum())
    if n < 2:
        raise TooFewRecords("ARI needs at least 2 records")
    sum_ij, sum_a, sum_b = (float(x) for x in _pair_counts(table))
    expected = sum_a * sum_b / (n * (n - 1) / 2.0)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def pairwise_f1(pred: dict, truth: dict) -> tuple[float, float, float]:
    """(precision, recall, f1) over unordered record pairs; 0 on empty denominators."""
    table = contingency(pred, truth)
    tp, together_pred, together_truth = _pair_counts(table)
    precision = tp / together_pred if together_pred else 0.0
    recall = tp / together_truth if together_truth else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1
