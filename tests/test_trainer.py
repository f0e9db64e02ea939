import math

import numpy as np
import pytest

from vidbase import data
from vidbase import models as M
from vidbase import trainer as tr


def toy_problem(seed=0, n=400, dim=4, sep=4.0):
    """Linearly separable two-class cloud, returned with bias appended."""
    rng = np.random.default_rng(seed)
    half = n // 2
    pos = rng.standard_normal((half, dim)) + sep / 2
    neg = rng.standard_normal((n - half, dim)) - sep / 2
    x = M.add_bias(np.concatenate([pos, neg]))
    y = np.concatenate([np.ones(half), np.zeros(n - half)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


# -------------------------------------------------------------- sampling

def test_sampling_plan_worked_case():
    # Tp=100, Tn=10000, cap=1000: Sp=100, Sn=1000,
    # w+ = sqrt(100*1000 / (10000*100)) = sqrt(0.1)
    mask = np.zeros(10_100, dtype=bool)
    mask[:100] = True
    plan = tr.build_sampling_plan(0, mask, cap=1000, seed=7)
    assert plan.sampled_pos == 100
    assert plan.sampled_neg == 1000
    assert plan.w_plus == pytest.approx(math.sqrt(0.1), rel=1e-12)
    assert plan.w_minus == pytest.approx(1.0 / math.sqrt(0.1), rel=1e-12)


def test_sampling_plan_mass_ratio_identity():
    # w+*Sp / (w-*Sn) must equal Tp/Tn for any configuration
    rng = np.random.default_rng(1)
    for _ in range(50):
        tp = int(rng.integers(1, 500))
        tn = int(rng.integers(1, 500))
        cap = int(rng.integers(1, 300))
        mask = np.zeros(tp + tn, dtype=bool)
        mask[rng.choice(tp + tn, size=tp, replace=False)] = True
        plan = tr.build_sampling_plan(3, mask, cap=cap, seed=int(rng.integers(1e6)))
        lhs = (plan.w_plus * plan.sampled_pos) / (plan.w_minus * plan.sampled_neg)
        assert lhs == pytest.approx(tp / tn, rel=1e-9)


def test_sampling_plan_no_cap_is_identity_weights():
    mask = np.array([True] * 30 + [False] * 70)
    plan = tr.build_sampling_plan(0, mask, cap=1000, seed=0)
    assert plan.sampled_pos == 30 and plan.sampled_neg == 70
    assert plan.w_plus == pytest.approx(1.0)
    assert plan.w_minus == pytest.approx(1.0)
    assert set(plan.pos_indices) == set(range(30))


def test_sampling_plan_without_replacement_and_class_purity():
    mask = np.zeros(200, dtype=bool)
    mask[::2] = True
    plan = tr.build_sampling_plan(5, mask, cap=40, seed=11)
    assert len(np.unique(plan.pos_indices)) == 40
    assert len(np.unique(plan.neg_indices)) == 40
    assert np.all(mask[plan.pos_indices])
    assert not np.any(mask[plan.neg_indices])


def test_sampling_plan_deterministic():
    mask = np.zeros(500, dtype=bool)
    mask[:50] = True
    a = tr.build_sampling_plan(2, mask, cap=20, seed=9)
    b = tr.build_sampling_plan(2, mask, cap=20, seed=9)
    assert np.array_equal(a.pos_indices, b.pos_indices)
    assert np.array_equal(a.neg_indices, b.neg_indices)


def test_sampling_plan_one_class_fails():
    with pytest.raises(tr.TrainingError):
        tr.build_sampling_plan(0, np.ones(10, dtype=bool), cap=5, seed=0)
    with pytest.raises(tr.TrainingError):
        tr.build_sampling_plan(0, np.zeros(10, dtype=bool), cap=5, seed=0)


# ------------------------------------------------------- frame expansion

def _tiny_videos(seed=0, n_videos=5, dim=3, frames=(2, 40)):
    spec = data.ClusterSpec.separated(seed, 2, dim)
    return data.generate_synthetic(seed, 2, n_videos, dim, spec,
                                   frames_min=frames[0], frames_max=frames[1])


def _expand_per_video_reference(partition, frames_per_video, seed):
    # Test-only reference: the per-video loop that gathers one row at a time
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0xF8A3]))
    rows, video_index = [], []
    for vi, frames in enumerate(partition.videos()):
        n = frames.shape[0]
        picks = np.sort(rng.choice(n, size=min(n, frames_per_video),
                                   replace=False))
        for t in picks:
            rows.append(frames[t])
            video_index.append(vi)
    return np.asarray(rows, dtype=np.float64), np.asarray(video_index)


@pytest.mark.parametrize("seed,per_video,frames", [
    (0, 20, (2, 40)), (1, 1, (1, 3)), (2, 5, (1, 9)), (3, 50, (5, 30))],
    ids=["cap-20", "cap-1", "cap-5-single-frames", "cap-above-every-video"])
def test_expand_frame_examples_matches_per_video_reference(seed, per_video,
                                                           frames):
    videos = _tiny_videos(seed=seed, n_videos=40, frames=frames)
    got, got_index = tr.expand_frame_examples(videos, per_video, seed=seed + 7)
    want, want_index = _expand_per_video_reference(videos, per_video,
                                                   seed=seed + 7)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert np.array_equal(got_index, want_index)


def test_expand_frame_examples_caps_per_video():
    videos = _tiny_videos()
    frames, vidx = tr.expand_frame_examples(videos, 20, seed=0)
    counts = np.bincount(vidx, minlength=len(videos))
    assert counts.tolist() == np.minimum(np.diff(videos.offsets), 20).tolist()


def test_expand_frame_examples_frames_are_real_rows():
    videos = _tiny_videos(seed=1)
    frames, vidx = tr.expand_frame_examples(videos, 5, seed=3)
    pools = list(videos.videos())
    for i, vi in enumerate(vidx):
        pool = pools[vi].astype(np.float64)
        assert any(np.array_equal(frames[i], row) for row in pool)


def test_expand_frame_examples_deterministic():
    videos = _tiny_videos(seed=2)
    a = tr.expand_frame_examples(videos, 10, seed=5)
    b = tr.expand_frame_examples(videos, 10, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# --------------------------------------------------------------- training

@pytest.mark.parametrize("kind", ["logistic", "hinge", "moe"])
def test_training_separable_problem(kind):
    x, y = toy_problem(seed=3)
    cfg = tr.TrainerConfig(model_kind=kind, learning_rate=0.5, batch_size=32,
                           iterations=20, seed=0)
    model = tr._make_model(x.shape[1] - 1, cfg)
    model, trace = tr.train_label(model, x, y, cfg, label_id=0)
    preds = M.predict(model, x)
    acc = np.mean((preds > 0.5) == (y > 0.5))
    assert acc > 0.95
    assert trace[-1] < trace[0]


def test_training_loss_trace_length():
    x, y = toy_problem(seed=4, n=100)
    cfg = tr.TrainerConfig(iterations=7, model_kind="logistic", seed=1)
    model = tr._make_model(x.shape[1] - 1, cfg)
    _, trace = tr.train_label(model, x, y, cfg, label_id=0)
    assert len(trace) == 8  # initial loss + one per iteration


def test_regularization_shrinks_weights():
    x, y = toy_problem(seed=5, n=300)
    small = tr.TrainerConfig(model_kind="logistic", l2=1e-6, iterations=15,
                             learning_rate=0.5, seed=2)
    large = tr.TrainerConfig(model_kind="logistic", l2=10.0, iterations=15,
                             learning_rate=0.5, seed=2)
    m_small = tr._make_model(x.shape[1] - 1, small)
    m_large = tr._make_model(x.shape[1] - 1, large)
    tr.train_label(m_small, x, y, small, 0)
    tr.train_label(m_large, x, y, large, 0)
    # heavier L2 must pull the non-bias weights toward the origin
    assert np.linalg.norm(m_large.weights[:-1]) < \
        0.6 * np.linalg.norm(m_small.weights[:-1])


def test_adagrad_accumulator_monotone():
    x, y = toy_problem(seed=6, n=200)
    cfg = tr.TrainerConfig(model_kind="logistic", iterations=1, seed=3)
    model = tr._make_model(x.shape[1] - 1, cfg)
    snapshots = [model.grad_sq.copy()]
    for it in range(4):
        tr.train_label(model, x, y, cfg, 0)
        snapshots.append(model.grad_sq.copy())
    for a, b in zip(snapshots, snapshots[1:]):
        assert np.all(b >= a)


def test_bias_excluded_from_regularizer():
    # with only the bias active, a huge l2 must not produce any update force
    # beyond the data term: compare to an identical run with l2 = 0
    x = np.ones((50, 1))  # bias-only design
    y = np.concatenate([np.ones(25), np.zeros(25)])
    cfg0 = tr.TrainerConfig(model_kind="logistic", l2=1e-6, iterations=5, seed=4)
    cfg1 = tr.TrainerConfig(model_kind="logistic", l2=10.0, iterations=5, seed=4)
    m0 = M.LogisticModel.zeros(0, l2=cfg0.l2)
    m1 = M.LogisticModel.zeros(0, l2=cfg1.l2)
    tr.train_label(m0, x, y, cfg0, 0)
    tr.train_label(m1, x, y, cfg1, 0)
    assert np.allclose(m0.weights, m1.weights, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_raises():
    x = np.array([[1e300, 1.0], [-1e300, 1.0]])
    y = np.array([1.0, 0.0])
    cfg = tr.TrainerConfig(model_kind="hinge", learning_rate=1e280,
                           iterations=3, seed=5)
    model = tr._make_model(1, cfg)
    with pytest.raises(tr.TrainingError, match="non-finite"):
        tr.train_label(model, x, y, cfg, 0)


# --------------------------------------------------------- orchestration

def _bank_problem(seed=7, n=240, n_labels=4, dim=3):
    rng = np.random.default_rng(seed)
    centers = 4.0 * rng.standard_normal((n_labels, dim))
    y = np.zeros((n, n_labels))
    rows = np.empty((n, dim))
    for i in range(n):
        e = i % n_labels
        rows[i] = centers[e] + 0.3 * rng.standard_normal(dim)
        y[i, e] = 1.0
    return M.add_bias(rows), y


def test_train_all_skips_single_class_labels():
    x, y = _bank_problem(n_labels=3)
    y = np.concatenate([y, np.zeros((len(y), 1))], axis=1)  # label 3 empty
    vocab = data.LabelVocabulary.trivial(4)
    cfg = tr.TrainerConfig(model_kind="logistic", iterations=2, seed=7)
    results = tr.train_all(vocab, x, y, cfg)
    assert results[3].skipped and "positive" in results[3].reason
    assert all(not results[e].skipped for e in range(3))


@pytest.mark.parametrize("kind", ["logistic", "moe"])
def test_train_all_deterministic_rerun(kind):
    x, y = _bank_problem(seed=8)
    vocab = data.LabelVocabulary.trivial(y.shape[1])
    cfg = tr.TrainerConfig(model_kind=kind, iterations=4, seed=8)
    a = tr.train_all(vocab, x, y, cfg)
    b = tr.train_all(vocab, x, y, cfg)
    for lid in a:
        assert M.serialize_model(a[lid].model) == M.serialize_model(b[lid].model)
        assert a[lid].loss_trace == b[lid].loss_trace


# ----------------------------------------------------------- prediction

def test_predict_video_frame_level_average_pooling():
    rng = np.random.default_rng(9)
    model = M.LogisticModel(weights=rng.standard_normal(4))
    bank = {0: model}
    frames = rng.standard_normal((6, 3))
    got = tr.predict_video_frame_level(bank, frames, 3)
    per_frame = [float(M.predict(model, M.add_bias(f))) for f in frames]
    assert got[0] == pytest.approx(np.mean(per_frame), abs=1e-12)
    # labels without a model, the last ones included, score 0
    assert got.shape == (3,) and got[1] == got[2] == 0.0


def test_predict_video_level_matches_model():
    rng = np.random.default_rng(10)
    model = M.MoEModel(gating=rng.standard_normal((2, 5)),
                       experts=rng.standard_normal((2, 5)))
    bank = {0: model, 1: M.LogisticModel(weights=rng.standard_normal(5))}
    d = rng.standard_normal(4)
    got = tr.predict_video_level(bank, d, 3)
    assert got[0] == pytest.approx(
        float(M.moe_predict(model, M.add_bias(d))), abs=1e-12)
    assert got.shape == (3,) and got[2] == 0.0


# -------------------------------------------------------- full-batch descent

def test_full_batch_logistic_loss_non_increasing():
    """Plain full-batch gradient descent on the convex logistic objective
    must never increase the loss at a suitable step size."""
    x, y = toy_problem(seed=11, n=150, dim=3, sep=1.0)
    model = M.LogisticModel.zeros(x.shape[1] - 1, l2=1e-6)
    lr = 0.05
    w = np.ones(len(y))

    prev = model.loss(x, y, w)
    for _ in range(100):
        (grad,) = model.gradient(x, y, w)
        model.weights -= lr * grad
        cur = model.loss(x, y, w)
        assert cur <= prev + 1e-12
        prev = cur
