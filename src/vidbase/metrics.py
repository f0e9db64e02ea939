"""Ranking metrics: bucketed average precision / mAP, Hit@k, and PERR.

Scores are rounded into buckets of 1e-4 before AP is computed; Hit@k and
PERR rank labels by descending score with ties broken by ascending label id.
Brute-force reference implementations of every metric live in
:mod:`vidbase.reference`.
"""

from dataclasses import dataclass, field

import numpy as np

N_BUCKETS = 10_000


class MetricError(Exception):
    pass


@dataclass
class PredictionSet:
    video_ids: list
    scores: np.ndarray  # (V, L) in [0, 1]
    truths: list        # per-video frozenset of label ids

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2 or len(self.video_ids) != self.scores.shape[0]:
            raise ValueError("scores must be (V, L) matching video_ids")
        if len(self.truths) != self.scores.shape[0]:
            raise ValueError("one truth set per video required")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if np.any(self.scores < 0) or np.any(self.scores > 1):
            raise ValueError("scores must lie in [0, 1]")
        self.truths = [frozenset(int(e) for e in g) for g in self.truths]
        n_labels = self.scores.shape[1]
        for g in self.truths:
            if any(e < 0 or e >= n_labels for e in g):
                raise ValueError("ground-truth label id out of range")

    @property
    def n_labels(self):
        return self.scores.shape[1]


@dataclass
class EvalReport:
    mean_ap: float
    per_class_ap: dict
    hit_at_k: dict
    perr: float
    classes_skipped: int = 0
    videos_skipped: int = 0

    def as_dict(self):
        out = {"mAP": self.mean_ap, "PERR": self.perr,
               "classes_skipped": self.classes_skipped,
               "videos_skipped": self.videos_skipped}
        for k in sorted(self.hit_at_k):
            out["Hit@%d" % k] = self.hit_at_k[k]
        return out


def bucket_scores(scores):
    """Round scores to the nearest 1/10000 bucket, as integer indices."""
    return np.clip(np.round(np.asarray(scores, dtype=np.float64) * N_BUCKETS),
                   0, N_BUCKETS).astype(np.int64)


def average_precision(scores, truths):
    """Bucketed AP: sum over thresholds tau_j = j/10000 of
    P(tau_j) * [R(tau_j) - R(tau_{j+1})], with R beyond the last bucket
    defined as 0. Only thresholds where recall changes contribute, so the
    sum runs over the distinct positive buckets in ascending order."""
    truths = np.asarray(truths, dtype=bool)
    n_pos = int(truths.sum())
    if n_pos == 0:
        raise MetricError("average precision undefined without positives")

    buckets = bucket_scores(scores)
    cnt_all = np.bincount(buckets, minlength=N_BUCKETS + 2)
    cnt_pos = np.bincount(buckets[truths], minlength=N_BUCKETS + 2)
    ge_all = np.cumsum(cnt_all[::-1])[::-1]  # ge_all[j] = #{bucket >= j}
    ge_pos = np.cumsum(cnt_pos[::-1])[::-1]

    ap = 0.0
    for j in np.flatnonzero(cnt_pos):
        if j < 1:
            continue  # bucketed score 0 is never retrieved
        precision = int(ge_pos[j]) / int(ge_all[j])
        recall_j = int(ge_pos[j]) / n_pos
        recall_next = int(ge_pos[j + 1]) / n_pos
        ap += precision * (recall_j - recall_next)
    return ap


def mean_average_precision(predictions):
    """Unweighted mean AP over classes with at least one positive video."""
    per_class = {}
    skipped = 0
    truth_matrix = np.zeros(predictions.scores.shape, dtype=bool)
    for v, g in enumerate(predictions.truths):
        for e in g:
            truth_matrix[v, e] = True
    for e in range(predictions.n_labels):
        if not truth_matrix[:, e].any():
            skipped += 1
            continue
        per_class[e] = average_precision(predictions.scores[:, e],
                                         truth_matrix[:, e])
    if not per_class:
        raise MetricError("no class has positive examples")
    mean_ap = float(np.mean([per_class[e] for e in sorted(per_class)]))
    return mean_ap, per_class, skipped


def _ranking(scores_row):
    """Label ids ordered by descending score, ties by ascending label id."""
    n = len(scores_row)
    return np.lexsort((np.arange(n), -scores_row))


def hit_at_k(predictions, k, include_empty=False):
    """Fraction of videos with a ground-truth label in the top k. Videos
    with empty ground truth are excluded from the denominator unless
    `include_empty` is set (they can never hit)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = 0
    denom = 0
    for v, g in enumerate(predictions.truths):
        if not g:
            if include_empty:
                denom += 1
            continue
        denom += 1
        top = _ranking(predictions.scores[v])[:k]
        if any(int(e) in g for e in top):
            hits += 1
    if denom == 0:
        raise MetricError("no videos with ground truth")
    return hits / denom


def perr(predictions):
    """Precision at equal recall rate: per video with nonempty ground
    truth, the fraction of its labels within the top |G_v| predictions."""
    total = 0.0
    denom = 0
    for v, g in enumerate(predictions.truths):
        if not g:
            continue
        denom += 1
        top = set(int(e) for e in _ranking(predictions.scores[v])[:len(g)])
        total += len(top & g) / len(g)
    if denom == 0:
        raise MetricError("no videos with ground truth")
    return total / denom


def evaluate(predictions, hit_ks=(1, 5)):
    mean_ap, per_class, skipped = mean_average_precision(predictions)
    empty = sum(1 for g in predictions.truths if not g)
    return EvalReport(
        mean_ap=mean_ap,
        per_class_ap=per_class,
        hit_at_k={k: hit_at_k(predictions, k) for k in hit_ks},
        perr=perr(predictions),
        classes_skipped=skipped,
        videos_skipped=empty,
    )


def write_predictions(predictions, path):
    """Plain-text prediction file: one (video_id, label_id, score) per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for v, vid in enumerate(predictions.video_ids):
            for e in range(predictions.n_labels):
                fh.write("%s %d %.9f\n" % (vid, e, predictions.scores[v, e]))


def read_predictions(path, truths_by_video=None):
    """Read a prediction file; ground truth is attached from
    `truths_by_video` (video_id -> label set) when provided, and the file
    must then hold exactly one row per (video, label) of that partition."""
    rows = {}
    n_labels = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            try:
                vid, e, score = parts
                e, score = int(e), float(score)
            except ValueError:
                raise ValueError("%s: row %r is not 'video label score'"
                                 % (path, line.strip())) from None
            labels = rows.get(vid)
            if labels is None:
                labels = rows[vid] = {}
            if e < 0 or e in labels:
                raise ValueError("%s: negative or duplicate label %d for "
                                 "video %s" % (path, e, vid))
            labels[e] = score
            if e >= n_labels:
                n_labels = e + 1
    order = list(rows)
    truths = [frozenset()] * len(order)
    if truths_by_video is not None:
        for vid in order + list(truths_by_video):
            found = len(rows.get(vid, ()))
            if vid not in truths_by_video or found != n_labels:
                raise ValueError("%s: video %s has %d of %d label rows%s"
                                 % (path, vid, found, n_labels,
                                    "" if vid in truths_by_video
                                    else " and is not in the partition"))
        truths = [truths_by_video[vid] for vid in order]
        for vid, labels in zip(order, truths):
            outside = sorted(e for e in labels if e >= n_labels)
            if outside:
                raise ValueError("%s: ground-truth label %d of video %s is "
                                 "not among the %d labels the file scores"
                                 % (path, outside[0], vid, n_labels))
    scores = np.zeros((len(order), n_labels))
    for v, vid in enumerate(order):
        for e, s in rows[vid].items():
            scores[v, e] = s
    return PredictionSet(video_ids=order, scores=scores, truths=truths)
