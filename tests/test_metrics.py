import numpy as np
import pytest

from vidbase import metrics as mt
from vidbase import reference as ref

from helpers import label_lists, labelled, truth_matrix


def pset(scores, truths):
    scores = np.asarray(scores, dtype=np.float64)
    return mt.PredictionSet(video_ids=["v%d" % i for i in range(len(scores))],
                            scores=scores,
                            truths=truth_matrix(truths, scores.shape[1]))


def one_row_partition(video_ids, truths):
    """The partition of one-row videos whose ground truth is the rows of
    the truth matrix `truths`."""
    return labelled(video_ids, [np.flatnonzero(row) for row in truths])


def random_pset(rng):
    n_videos = int(rng.integers(1, 51))
    n_labels = int(rng.integers(2, 11))
    # quantized score grid makes tie configurations common
    scores = rng.integers(0, 12, size=(n_videos, n_labels)) / 11.0
    truths = []
    for _ in range(n_videos):
        size = min(int(rng.integers(0, 4)), n_labels)
        truths.append(frozenset(int(l) for l in
                                rng.choice(n_labels, size=size, replace=False)))
    return pset(scores, truths)


# -------------------------------------------------------------------- AP

def test_ap_perfect_ranking():
    ap = mt.average_precision([0.9, 0.8, 0.1], [1, 1, 0])
    assert ap == 1.0


def test_ap_requires_positives():
    with pytest.raises(mt.MetricError):
        mt.average_precision([0.5], [0])


def test_ap_interleaved_matches_oracle():
    scores = [0.9, 0.8, 0.7]
    truths = [1, 0, 1]
    assert mt.average_precision(scores, truths) == \
        ref.brute_force_average_precision(scores, truths)


def test_ap_all_tied():
    # single bucket at 0.5: P = 0.5 there, recall drops from 1 to 0
    ap = mt.average_precision([0.5, 0.5], [1, 0])
    assert ap == pytest.approx(0.5, abs=1e-12)
    assert ap == ref.brute_force_average_precision([0.5, 0.5], [1, 0])


def test_ap_zero_scores_never_retrieved():
    ap = mt.average_precision([0.0, 0.9], [1, 1])
    assert ap == ref.brute_force_average_precision([0.0, 0.9], [1, 1])
    assert ap == pytest.approx(0.5, abs=1e-12)


def test_ap_order_independence():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 1000, size=30) / 999.0
    truths = rng.integers(0, 2, size=30)
    truths[0] = 1
    base = mt.average_precision(scores, truths)
    for _ in range(5):
        perm = rng.permutation(30)
        assert mt.average_precision(scores[perm], truths[perm]) == base


def test_ap_bucket_invariance():
    # perturbations below half a bucket leave AP unchanged
    scores = np.array([0.3001, 0.5002, 0.8003])
    truths = np.array([0, 1, 1])
    base = mt.average_precision(scores, truths)
    assert mt.average_precision(scores + 2e-5, truths) == base


def test_map_single_class():
    p = pset([[0.9], [0.1]], [{0}, set()])
    mean_ap, per_class, skipped = mt.mean_average_precision(p)
    assert mean_ap == per_class[0]
    assert skipped == 0


def test_map_skips_empty_classes():
    p = pset([[0.9, 0.2], [0.1, 0.3]], [{0}, {0}])
    mean_ap, per_class, skipped = mt.mean_average_precision(p)
    assert skipped == 1
    assert 1 not in per_class


# ---------------------------------------------------------------- Hit@k

def test_hit_at_k_rank_arithmetic():
    # label 1 ("A") ranked second behind label 0 ("B")
    p = pset([[0.9, 0.8, 0.1]], [{1}])
    assert mt.hit_at_k(p, 1) == 0.0
    assert mt.hit_at_k(p, 2) == 1.0


def test_hit_at_k_saturation():
    rng = np.random.default_rng(1)
    p = random_pset(rng)
    if p.truths.any():
        assert mt.hit_at_k(p, p.n_labels) == 1.0


def test_hit_at_k_monotone_in_k():
    rng = np.random.default_rng(2)
    p = random_pset(rng)
    if not p.truths.any():
        return
    values = [mt.hit_at_k(p, k) for k in range(1, p.n_labels + 1)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_hit_at_k_empty_truth_flag():
    p = pset([[0.9, 0.1], [0.2, 0.3]], [{0}, set()])
    assert mt.hit_at_k(p, 1) == 1.0


# ------------------------------------------------------------------ PERR

def test_perr_hand_case():
    # G = {0, 1}; top-2 by score are labels 0 and 2
    p = pset([[0.9, 0.1, 0.5]], [{0, 1}])
    assert mt.perr(p) == pytest.approx(0.5)


def test_perr_perfect_retrieval():
    p = pset([[0.9, 0.8, 0.1]], [{0, 1}])
    assert mt.perr(p) == 1.0


def test_perr_all_empty_truth():
    p = pset([[0.9, 0.1]], [set()])
    with pytest.raises(mt.MetricError):
        mt.perr(p)


def test_tie_break_by_label_id():
    p = pset([[0.5, 0.5]], [{1}])
    # label 0 wins the tie, so label 1 has rank 2
    assert mt.hit_at_k(p, 1) == 0.0
    assert ref.brute_force_hit_at_k(p, 1) == 0.0


# ----------------------------------------------------- oracle equivalence

def test_oracle_equivalence_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = random_pset(rng)
        # a class has a positive video when a video has ground truth
        if p.truths.any():
            fast, _, fast_skip = mt.mean_average_precision(p)
            slow, _, slow_skip = ref.brute_force_mean_ap(p)
            assert fast == slow
            assert fast_skip == slow_skip
            for k in (1, 3, p.n_labels):
                assert mt.hit_at_k(p, k) == ref.brute_force_hit_at_k(p, k)
            assert mt.perr(p) == ref.brute_force_perr(p)


def test_perr_and_hit_at_k_match_the_oracle_at_benchmark_scale():
    """Bit for bit with the brute-force references on a set of benchmark
    size, where PERR adds thousands of fractions: added pairwise, as np.sum
    does, they round otherwise than added in video order."""
    rng = np.random.default_rng(43)
    n_videos, n_labels = 2000, 12
    scores = rng.integers(0, 12, size=(n_videos, n_labels)) / 11.0
    p = pset(scores, [rng.choice(n_labels, size=int(rng.integers(0, 4)),
                                 replace=False) for _ in range(n_videos)])
    for k in (1, 5):
        assert mt.hit_at_k(p, k) == ref.brute_force_hit_at_k(p, k)
    assert mt.perr(p) == ref.brute_force_perr(p)


# ------------------------------------------------------------------- I/O

def test_prediction_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    p = random_pset(rng)
    path = tmp_path / "preds.txt"
    mt.write_predictions(p, path)
    back = mt.read_predictions(path,
                               one_row_partition(p.video_ids, p.truths))
    assert back.video_ids == p.video_ids
    # every score reads back as the float of its 9-decimal text, bit for bit
    expect = np.array([[float("%.9f" % s) for s in row]
                       for row in p.scores.tolist()])
    assert np.array_equal(back.scores.view(np.int64), expect.view(np.int64))
    assert np.array_equal(back.truths, p.truths)


def test_read_predictions_skips_a_byte_order_mark(tmp_path):
    # a file saved with a UTF-8 BOM reads back as the same set: the mark is
    # not part of the first video id
    p = random_pset(np.random.default_rng(4))
    path = tmp_path / "preds.txt"
    mt.write_predictions(p, path)
    part = one_row_partition(p.video_ids, p.truths)
    plain = mt.read_predictions(path, part)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    back = mt.read_predictions(path, part)
    assert back.video_ids == plain.video_ids
    assert np.array_equal(back.scores.view(np.int64),
                          plain.scores.view(np.int64))
    assert np.array_equal(back.truths, plain.truths)


def test_read_predictions_names_the_first_unscored_truth_in_file_order(
        tmp_path):
    # b comes first in the partition, c first in the file: the error names
    # c's smallest label the file does not score
    path = tmp_path / "preds.txt"
    path.write_text("".join("%s %d 0.5\n" % (vid, e)
                            for vid in "cba" for e in range(2)))
    part = labelled(["a", "b", "c"], [{0}, {1, 2}, {0, 3, 4}])
    with pytest.raises(ValueError) as err:
        mt.read_predictions(path, part)
    assert str(err.value) == ("%s: ground-truth label 3 of video c is not "
                              "among the 2 labels scored" % path)


def test_prediction_set_validation():
    with pytest.raises(ValueError):
        pset([[1.5]], [set()])
    with pytest.raises(ValueError):
        pset([[0.5]], [{3}])
    for truths in (np.zeros((1, 2), dtype=bool), np.ones((1, 1))):
        with pytest.raises(ValueError, match="truths must be"):
            mt.PredictionSet(video_ids=["v0"], scores=[[0.5]], truths=truths)


# ------------------------------------- one ranking and template per call

def _ranking_reference(scores_row):
    """Test-only reference: one video's labels by descending score, ties by
    ascending label id, ranked one video at a time as metrics did before."""
    return np.lexsort((np.arange(len(scores_row)), -scores_row))


def _hit_at_k_reference(p, k):
    hits = videos = 0
    for v, row in enumerate(p.truths):
        if row.any():
            videos += 1
            hits += bool(row[_ranking_reference(p.scores[v])[:k]].any())
    return hits / videos


def _perr_reference(p):
    # the fractions added one by one in video order (builtin sum adds
    # floats compensated from Python 3.12 on)
    total, videos = 0.0, 0
    for v, row in enumerate(p.truths):
        g = set(np.flatnonzero(row).tolist())
        if g:
            videos += 1
            top = _ranking_reference(p.scores[v])[:len(g)].tolist()
            total += len(set(top) & g) / len(g)
    return total / videos


def test_rankings_match_per_video_reference():
    """The whole-matrix ranking equals the per-video one row for row, on
    score grids where ties are common, and so do Hit@k and PERR."""
    rng = np.random.default_rng(17)
    for _ in range(100):
        p = random_pset(rng)
        rankings = p.rankings
        for v in range(len(p.video_ids)):
            assert rankings[v].tolist() == \
                _ranking_reference(p.scores[v]).tolist()
        if p.truths.any():
            for k in (1, 2, p.n_labels):
                assert mt.hit_at_k(p, k) == _hit_at_k_reference(p, k)
            assert mt.perr(p) == _perr_reference(p)


def test_evaluate_ranks_a_set_once(monkeypatch):
    # Hit@1, Hit@5 and PERR share one lexsort of the (V, L) scores
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort",
                        lambda *a, **kw: calls.append(1) or lexsort(*a, **kw))
    p = random_pset(np.random.default_rng(18))
    truths = p.truths.copy()
    truths[0] = np.arange(p.n_labels) == 0
    p = mt.PredictionSet(video_ids=p.video_ids, scores=p.scores,
                         truths=truths)
    report = mt.evaluate(p)
    assert len(calls) == 1
    assert report["Hit@1"] == _hit_at_k_reference(p, 1)
    assert report["Hit@5"] == _hit_at_k_reference(p, 5)
    assert report["PERR"] == _perr_reference(p)


def _write_predictions_reference(predictions, path):
    """Test-only reference: the prediction writer as it was, one formatted
    line per (video, label)."""
    with open(path, "w", encoding="utf-8") as fh:
        for v, vid in enumerate(predictions.video_ids):
            for e in range(predictions.n_labels):
                fh.write("%s %d %.9f\n" % (vid, e, predictions.scores[v, e]))


def test_write_predictions_matches_reference_bytes(tmp_path):
    rng = np.random.default_rng(5)
    scores = rng.random((40, 13))
    scores[::4] = np.round(scores[::4], 3)       # ties
    scores[1, :3] = [0.0, 1.0, 5e-10]
    scores[2] = np.nextafter(0.5, 1.0)           # rounds at the 9th digit
    ids = ["v%d" % i for i in range(38)] + ["100%", "a%sb%d"]
    p = mt.PredictionSet(video_ids=ids, scores=scores,
                         truths=np.zeros(scores.shape, dtype=bool))
    mt.write_predictions(p, tmp_path / "fast.txt")
    _write_predictions_reference(p, tmp_path / "slow.txt")
    assert (tmp_path / "fast.txt").read_bytes() == \
        (tmp_path / "slow.txt").read_bytes()


# ------------------------------------ the reader against the per-line one

def _read_predictions_reference(path, partition):
    """Test-only reference: the prediction reader as it was, one split,
    int and float per line into a dict per video."""
    truths_by_video = dict(zip(partition.video_ids,
                               map(set, label_lists(partition))))
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
    if truths_by_video and not rows:
        raise ValueError("%s: no prediction rows for a partition of %d "
                         "videos" % (path, len(truths_by_video)))
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
    return mt.PredictionSet(video_ids=order, scores=scores,
                            truths=truth_matrix(truths, n_labels))


_SCORE_FORMATS = ("%.9f", "%r", "%.17g", "%.3e", "%.12f")


def _random_prediction_text(rng):
    """A valid prediction file of a random set in a random layout: rows
    shuffled across videos, tabs or runs of spaces, LF, CRLF or bare CR,
    blank lines, no final newline, and any of several score spellings
    (-0.0 among them). Returns the text and the partition."""
    p = random_pset(rng)
    ids = ["v%d" % i for i in rng.permutation(p.scores.shape[0])]
    scores = p.scores.copy()
    scores[rng.random(scores.shape) < 0.05] = -0.0
    noise = rng.random(scores.shape) < 0.3
    scores[noise] = rng.random(int(noise.sum()))
    rows = [(v, e) for v in range(len(ids)) for e in range(p.n_labels)]
    if rng.random() < 0.5:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    newline = ["\n", "\r\n", "\r"][int(rng.integers(3))]
    lines = []
    for v, e in rows:
        gaps = [" ", "\t", "  ", " \t "]
        sep = [gaps[int(i)] for i in rng.integers(len(gaps), size=4)]
        fmt = _SCORE_FORMATS[int(rng.integers(len(_SCORE_FORMATS)))]
        score = ("-0.0" if np.signbit(scores[v, e])
                 else fmt % float(scores[v, e]))
        lines.append(sep[0] * int(rng.integers(2)) + ids[v] + sep[1] + str(e)
                     + sep[2] + score + sep[3] * int(rng.integers(2)))
        if rng.random() < 0.05:
            lines.append(["", "  ", "\t"][int(rng.integers(3))])
    text = newline.join(lines) + (newline if rng.random() < 0.7 else "")
    return text, one_row_partition(ids, p.truths)


def _both_readers(path, part):
    """The sets (or the errors) of the reader and of the reference."""
    out = []
    for read in (mt.read_predictions, _read_predictions_reference):
        try:
            out.append(read(path, part))
        except ValueError as exc:
            out.append(exc)
    return out


def test_read_predictions_matches_reference_on_random_files(tmp_path):
    rng = np.random.default_rng(19)
    path = tmp_path / "preds.txt"
    for _ in range(150):
        text, part = _random_prediction_text(rng)
        path.write_bytes(text.encode("utf-8"))
        fast, slow = _both_readers(path, part)
        assert fast.video_ids == slow.video_ids
        assert np.array_equal(fast.scores.view(np.int64),
                              slow.scores.view(np.int64))
        assert np.array_equal(fast.truths, slow.truths)


def _drop_row(lines, rng):
    i = int(rng.integers(len(lines)))
    return lines[:i] + lines[i + 1:]


def _edit_row(lines, rng, edit):
    i = int(rng.integers(len(lines)))
    return lines[:i] + [edit(lines[i].split())] + lines[i + 1:]


_FAULTS = {
    "2 tokens": lambda lines, rng: _edit_row(
        lines, rng, lambda r: " ".join(r[:2])),
    "4 tokens": lambda lines, rng: _edit_row(
        lines, rng, lambda r: " ".join(r + ["1"])),
    "non-int label": lambda lines, rng: _edit_row(
        lines, rng, lambda r: "%s %s.0 %s" % tuple(r)),
    "non-float score": lambda lines, rng: _edit_row(
        lines, rng, lambda r: "%s %s 0.5x" % tuple(r[:2])),
    "duplicate row": lambda lines, rng: lines + [
        lines[int(rng.integers(len(lines)))]],
    "negative label": lambda lines, rng: _edit_row(
        lines, rng, lambda r: "%s %d %s" % (r[0], ~int(r[1]), r[2])),
    "foreign video": lambda lines, rng: lines + [
        "x%d %d 0.5" % (int(rng.integers(100)), e)
        for e in range(len({l.split()[1] for l in lines}))],
    "missing label": _drop_row,
    "int64 overflow": lambda lines, rng: _edit_row(
        lines, rng, lambda r: "%s %d %s" % (r[0], 2 ** 63, r[2])),
    "nan score": lambda lines, rng: _edit_row(
        lines, rng, lambda r: "%s %s nan" % tuple(r[:2])),
}
# faults the reference rejects without naming the file, or not at all
_NEW_MESSAGES = ("int64 overflow", "nan score")


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_read_predictions_rejects_what_the_reference_rejects(tmp_path,
                                                             fault):
    rng = np.random.default_rng(sorted(_FAULTS).index(fault))
    path = tmp_path / "preds.txt"
    for _ in range(30):
        p = random_pset(rng)
        mt.write_predictions(p, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(_FAULTS[fault](lines, rng)) + "\n")
        fast, slow = _both_readers(path,
                                   one_row_partition(p.video_ids, p.truths))
        assert isinstance(fast, ValueError) and str(path) in str(fast)
        assert isinstance(slow, ValueError)
        if fault not in _NEW_MESSAGES:
            assert str(fast) == str(slow)
