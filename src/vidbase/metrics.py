"""Ranking metrics: bucketed average precision / mAP, Hit@k, and PERR.

Scores are rounded into buckets of 1e-4 before AP is computed; Hit@k and
PERR rank labels by descending score with ties broken by ascending label id.
Brute-force reference implementations of every metric live in
:mod:`vidbase.reference`.
"""

from dataclasses import dataclass
from functools import cached_property
import warnings

import numpy as np

from .data import label_matrix

N_BUCKETS = 10_000


class MetricError(Exception):
    pass


@dataclass
class PredictionSet:
    video_ids: list
    scores: np.ndarray  # (V, L) in [0, 1]
    truths: np.ndarray  # (V, L) bool, true at each video's label ids

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.truths = np.asarray(self.truths)
        if self.scores.ndim != 2 or len(self.video_ids) != self.scores.shape[0]:
            raise ValueError("scores must be (V, L) matching video_ids")
        if self.truths.dtype != bool or self.truths.shape != self.scores.shape:
            raise ValueError("truths must be a bool matrix of the scores' "
                             "shape")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if np.any(self.scores < 0) or np.any(self.scores > 1):
            raise ValueError("scores must lie in [0, 1]")

    @property
    def n_labels(self):
        return self.scores.shape[1]

    @cached_property
    def rankings(self):
        """Per video, the label ids ordered by descending score, ties by
        ascending label id, (V, L); sorted once per set."""
        ids = np.broadcast_to(np.arange(self.n_labels), self.scores.shape)
        return np.lexsort((ids, -self.scores), axis=1)


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
    """Unweighted mean AP over classes with at least one positive video,
    the AP of each such class, and the number of the other classes."""
    classes = np.flatnonzero(predictions.truths.any(axis=0)).tolist()
    if not classes:
        raise MetricError("no class has positive examples")
    per_class = {e: average_precision(predictions.scores[:, e],
                                      predictions.truths[:, e])
                 for e in classes}
    mean_ap = float(np.mean([per_class[e] for e in classes]))
    return mean_ap, per_class, predictions.n_labels - len(classes)


def hit_at_k(predictions, k):
    """Fraction of videos with a ground-truth label in the top k, over the
    videos with nonempty ground truth (the others can never hit)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_labelled = int(np.count_nonzero(predictions.truths.any(axis=1)))
    if n_labelled == 0:
        raise MetricError("no videos with ground truth")
    top = np.take_along_axis(predictions.truths, predictions.rankings[:, :k],
                             axis=1)
    return int(np.count_nonzero(top.any(axis=1))) / n_labelled


def perr(predictions):
    """Precision at equal recall rate: per video with nonempty ground
    truth, the fraction of its labels within the top |G_v| predictions;
    the fractions are summed in video order."""
    # the truths of each video with ground truth in rank order, and |G_v|
    ranked = np.take_along_axis(predictions.truths, predictions.rankings,
                                axis=1)[predictions.truths.any(axis=1)]
    if not len(ranked):
        raise MetricError("no videos with ground truth")
    sizes = np.count_nonzero(ranked, axis=1)
    within = np.cumsum(ranked, axis=1)[np.arange(len(ranked)), sizes - 1]
    # accumulate adds left to right; np.sum would add pairwise
    return float(np.add.accumulate(within / sizes)[-1]) / len(ranked)


def evaluate(predictions, hit_ks=(1, 5)):
    """{name: value} of mAP, Hit@k for each k of hit_ks, PERR, and the
    number of classes (no positive video) and of videos (no ground truth)
    that they skip."""
    mean_ap, _, skipped = mean_average_precision(predictions)
    report = {"Hit@%d" % k: hit_at_k(predictions, k) for k in hit_ks}
    report.update({"mAP": mean_ap, "PERR": perr(predictions),
                   "classes_skipped": skipped,
                   "videos_skipped": int(np.count_nonzero(
                       ~predictions.truths.any(axis=1)))})
    return report


def write_predictions(predictions, path):
    """Plain-text prediction file: one (video_id, label_id, score) per line,
    with the score as %.9f; a video's lines are formatted as one template."""
    rows = [" %d %%.9f\n" % e for e in range(predictions.n_labels)]
    with open(path, "w", encoding="utf-8") as fh:
        for vid, scores in zip(predictions.video_ids,
                               predictions.scores.tolist()):
            fh.write(vid.replace("%", "%%").join([""] + rows) % tuple(scores))


def read_predictions(path, partition):
    """Read a prediction file and attach the ground truth of the
    data.Partition `partition` as the truth matrix; the file must hold
    exactly one row per (video, label) of that partition, and score every
    label of its ground truth. Videos keep the order of their first rows."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file of no rows
            rows = np.loadtxt(path, dtype=[("video", object), ("label", "i8"),
                                           ("score", "f8")],
                              comments=None, encoding="utf-8-sig", ndmin=1)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, _bad_row(path) or exc)) from None
    if len(partition) and not len(rows):
        raise ValueError("%s: no prediction rows for a partition of %d "
                         "videos" % (path, len(partition)))
    ids, first, inverse = np.unique(rows["video"], return_index=True,
                                    return_inverse=True)
    order = ids[np.argsort(first)].tolist()
    video = np.argsort(np.argsort(first))[inverse]  # row -> index in order
    label = rows["label"]
    n_labels = int(label.max(initial=-1)) + 1
    # unless every (video, label) cell holds one row, seek the first
    # negative label or duplicate row in file order
    if not (len(rows) == len(order) * n_labels and np.all(label >= 0)
            and np.all(np.bincount(video * n_labels + label) == 1)):
        seen = set()
        for v, e in zip(video.tolist(), label.tolist()):
            if e < 0 or (v, e) in seen:
                raise ValueError("%s: negative or duplicate label %d for "
                                 "video %s" % (path, e, order[v]))
            seen.add((v, e))
    counts = dict(zip(order, np.bincount(video).tolist()))
    where = dict(zip(partition.video_ids, range(len(partition))))
    for vid in order + list(partition.video_ids):
        found = counts.get(vid, 0)
        if vid not in where or found != n_labels:
            raise ValueError("%s: video %s has %d of %d label rows%s"
                             % (path, vid, found, n_labels,
                                "" if vid in where
                                else " and is not in the partition"))
    # the partition's videos in file order; name the smallest label the
    # file does not score of the first video in that order that has one
    picks = np.array([where[vid] for vid in order], dtype=np.intp)
    owner = np.repeat(np.argsort(picks), np.diff(partition.label_offsets))
    outside = np.flatnonzero(partition.labels >= n_labels)
    if len(outside):
        first = outside[np.argmin(owner[outside])]
        raise ValueError("%s: ground-truth label %d of video %s is not among "
                         "the %d labels scored"
                         % (path, partition.labels[first],
                            order[owner[first]], n_labels))
    scores = np.zeros((len(order), n_labels))
    scores[video, label] = rows["score"]
    try:
        return PredictionSet(video_ids=order, scores=scores,
                             truths=label_matrix(partition, n_labels)[picks])
    except ValueError as exc:  # a score out of range
        raise ValueError("%s: %s" % (path, exc)) from None


def _bad_row(path):
    """The first row of `path` that is not 'video label score' with an
    int64 label, named; None when every row is one."""
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        for line in fh:
            try:
                _, e, score = line.split() or ("", "0", "0")  # skip blanks
                np.int64(e), float(score)
            except (ValueError, OverflowError):
                return "row %r is not 'video label score'" % line.strip()
