"""Brute-force reference implementations of the ranking metrics.

These deliberately trade speed for directness: AP enumerates all 10000
thresholds with explicit indicator counting, and the rankers count pairwise
comparisons. They share only the bucketing function with the fast paths.
"""

import numpy as np

from .metrics import MetricError, N_BUCKETS, bucket_scores


def brute_force_average_precision(scores, truths):
    """AP = sum_{j=1}^{10000} P(tau_j) [R(tau_j) - R(tau_{j+1})], every
    threshold evaluated by direct indicator counting."""
    truths = np.asarray(truths, dtype=bool)
    n_pos = int(truths.sum())
    if n_pos == 0:
        raise MetricError("average precision undefined without positives")
    buckets = bucket_scores(scores)

    # Indicator counts evaluated directly at every threshold tau_1..tau_10001
    # (the extra entry closes the telescoping sum with R = 0).
    thresholds = np.arange(1, N_BUCKETS + 2)
    mask = buckets[None, :] >= thresholds[:, None]
    n_ret = mask.sum(axis=1).tolist()
    n_pos_ret = (mask & truths[None, :]).sum(axis=1).tolist()

    ap = 0.0
    for i in range(N_BUCKETS):  # i = j - 1 for tau_j
        precision = n_pos_ret[i] / n_ret[i] if n_ret[i] > 0 else 0.0
        recall_j = n_pos_ret[i] / n_pos
        recall_next = n_pos_ret[i + 1] / n_pos
        ap += precision * (recall_j - recall_next)
    return ap


def brute_force_mean_ap(predictions):
    per_class = {}
    skipped = 0
    for e in range(predictions.n_labels):
        # a contiguous copy: it is ANDed with a (10001, V) threshold mask
        truths = predictions.truths[:, e].copy()
        if not truths.any():
            skipped += 1
            continue
        per_class[e] = brute_force_average_precision(
            predictions.scores[:, e], truths)
    if not per_class:
        raise MetricError("no class has positive examples")
    mean_ap = float(np.mean([per_class[e] for e in sorted(per_class)]))
    return mean_ap, per_class, skipped


def _rank_of(scores_row, e):
    """1-based rank of label e: labels with higher score, or equal score
    and lower id, rank ahead."""
    better = 0
    for other in range(len(scores_row)):
        if other == e:
            continue
        if (scores_row[other] > scores_row[e]
                or (scores_row[other] == scores_row[e] and other < e)):
            better += 1
    return better + 1


def brute_force_hit_at_k(predictions, k):
    hits = 0
    denom = 0
    for v, row in enumerate(predictions.truths):
        g = np.flatnonzero(row).tolist()
        if not g:
            continue
        denom += 1
        if any(_rank_of(predictions.scores[v], e) <= k for e in g):
            hits += 1
    if denom == 0:
        raise MetricError("no videos with ground truth")
    return hits / denom


def brute_force_perr(predictions):
    total = 0.0
    denom = 0
    for v, row in enumerate(predictions.truths):
        g = np.flatnonzero(row).tolist()
        if not g:
            continue
        denom += 1
        within = sum(1 for e in g
                     if _rank_of(predictions.scores[v], e) <= len(g))
        total += within / len(g)
    if denom == 0:
        raise MetricError("no videos with ground truth")
    return total / denom
