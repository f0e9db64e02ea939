import numpy as np
import pytest

from vidbase import metrics as mt
from vidbase import reference as ref


def pset(scores, truths):
    scores = np.asarray(scores, dtype=np.float64)
    return mt.PredictionSet(video_ids=["v%d" % i for i in range(len(scores))],
                            scores=scores, truths=[frozenset(t) for t in truths])


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
    nonempty = [g for g in p.truths if g]
    if nonempty:
        assert mt.hit_at_k(p, p.n_labels) == 1.0


def test_hit_at_k_monotone_in_k():
    rng = np.random.default_rng(2)
    p = random_pset(rng)
    if not any(p.truths):
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
        has_pos_class = any(any(e in g for g in p.truths)
                            for e in range(p.n_labels))
        if has_pos_class:
            fast, _, fast_skip = mt.mean_average_precision(p)
            slow, _, slow_skip = ref.brute_force_mean_ap(p)
            assert fast == slow
            assert fast_skip == slow_skip
        if any(p.truths):
            for k in (1, 3, p.n_labels):
                assert mt.hit_at_k(p, k) == ref.brute_force_hit_at_k(p, k)
            assert mt.perr(p) == ref.brute_force_perr(p)


# ------------------------------------------------------------------- I/O

def test_prediction_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    p = random_pset(rng)
    path = tmp_path / "preds.txt"
    mt.write_predictions(p, path)
    truths = {vid: g for vid, g in zip(p.video_ids, p.truths)}
    back = mt.read_predictions(path, truths_by_video=truths)
    assert back.video_ids == p.video_ids
    assert np.allclose(back.scores, p.scores, atol=1e-9)
    assert back.truths == p.truths


def test_prediction_set_validation():
    with pytest.raises(ValueError):
        pset([[1.5]], [set()])
    with pytest.raises(ValueError):
        pset([[0.5]], [{3}])


# ------------------------------------- one ranking and template per call

def _ranking_reference(scores_row):
    """Test-only reference: one video's labels by descending score, ties by
    ascending label id, ranked one video at a time as metrics did before."""
    return np.lexsort((np.arange(len(scores_row)), -scores_row))


def _hit_at_k_reference(p, k):
    hits = [any(int(e) in g for e in _ranking_reference(p.scores[v])[:k])
            for v, g in enumerate(p.truths) if g]
    return sum(hits) / len(hits)


def _perr_reference(p):
    precisions = [len(set(_ranking_reference(p.scores[v])[:len(g)].tolist())
                      & g) / len(g) for v, g in enumerate(p.truths) if g]
    return sum(precisions) / len(precisions)


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
        if any(p.truths):
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
    p = pset(p.scores, [frozenset({0})] + p.truths[1:])
    report = mt.evaluate(p)
    assert len(calls) == 1
    assert report.hit_at_k == {k: _hit_at_k_reference(p, k) for k in (1, 5)}
    assert report.perr == _perr_reference(p)


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
                         truths=[frozenset()] * len(ids))
    mt.write_predictions(p, tmp_path / "fast.txt")
    _write_predictions_reference(p, tmp_path / "slow.txt")
    assert (tmp_path / "fast.txt").read_bytes() == \
        (tmp_path / "slow.txt").read_bytes()
