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
    model = tr._make_model(x.shape[1] - 1, 1, cfg)
    model, (trace,) = tr.train_label(model, x, y[:, None], cfg, [0])
    preds = M.predict(model, x)[:, 0]
    acc = np.mean((preds > 0.5) == (y > 0.5))
    assert acc > 0.95
    assert trace[-1] < trace[0]


def test_training_loss_trace_length():
    x, y = toy_problem(seed=4, n=100)
    cfg = tr.TrainerConfig(iterations=7, model_kind="logistic", seed=1)
    model = tr._make_model(x.shape[1] - 1, 1, cfg)
    _, (trace,) = tr.train_label(model, x, y[:, None], cfg, [0])
    assert len(trace) == 8  # initial loss + one per iteration


def test_regularization_shrinks_weights():
    x, y = toy_problem(seed=5, n=300)
    small = tr.TrainerConfig(model_kind="logistic", l2=1e-6, iterations=15,
                             learning_rate=0.5, seed=2)
    large = tr.TrainerConfig(model_kind="logistic", l2=10.0, iterations=15,
                             learning_rate=0.5, seed=2)
    m_small = tr._make_model(x.shape[1] - 1, 1, small)
    m_large = tr._make_model(x.shape[1] - 1, 1, large)
    tr.train_label(m_small, x, y[:, None], small, [0])
    tr.train_label(m_large, x, y[:, None], large, [0])
    # heavier L2 must pull the non-bias weights toward the origin
    assert np.linalg.norm(m_large.weights[0, :-1]) < \
        0.6 * np.linalg.norm(m_small.weights[0, :-1])


def test_adagrad_accumulator_monotone():
    x, y = toy_problem(seed=6, n=200)
    cfg = tr.TrainerConfig(model_kind="logistic", iterations=1, seed=3)
    model = tr._make_model(x.shape[1] - 1, 1, cfg)
    snapshots = [model.grad_sq.copy()]
    for it in range(4):
        tr.train_label(model, x, y[:, None], cfg, [0])
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
    tr.train_label(m0, x, y[:, None], cfg0, [0])
    tr.train_label(m1, x, y[:, None], cfg1, [0])
    assert np.allclose(m0.weights, m1.weights, atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_skips_label():
    x = np.array([[1e300, 1.0], [-1e300, 1.0]])
    y = np.array([[1.0], [0.0]])
    cfg = tr.TrainerConfig(model_kind="hinge", learning_rate=1e280,
                           iterations=3, seed=5)
    _, (trace,) = tr.train_label(tr._make_model(1, 1, cfg), x, y, cfg, [0])
    assert len(trace) == 2 and not np.isfinite(trace[-1])
    (result,) = tr.train_all(data.LabelVocabulary.trivial(1), x, y,
                             cfg).values()
    assert result.skipped and result.model is None
    assert result.reason == "non-finite loss for label 0 at iteration 0"


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


# ------------------------------------------------- lockstep equivalence

def _train_label_reference(model, x, y, cfg, label_id):
    """Test-only reference: one label trained on its own, one mini-batch
    after another, as the trainer did before labels ran in lockstep.
    Stops after the first non-finite loss, which ends the trace."""
    trace = []
    for it in range(cfg.iterations):
        plan = tr.build_sampling_plan(
            label_id, y > 0.5, cfg.sample_cap,
            seed=tr._derive_seed(cfg.seed, label_id, it))
        idx = np.concatenate([plan.pos_indices, plan.neg_indices])
        wts = np.concatenate([np.full(plan.sampled_pos, plan.w_plus),
                              np.full(plan.sampled_neg, plan.w_minus)])
        rng = np.random.default_rng(np.random.SeedSequence(
            [cfg.seed & 0xFFFFFFFF, int(label_id), it, 0x5F]))
        order = rng.permutation(len(idx))
        idx, wts = idx[order], wts[order]
        xs, ys, wts = x[idx][None], y[idx][None], wts[None]

        if it == 0:
            trace.append(float(model.loss(xs, ys, wts)[0]))
        n = len(idx)
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            tr._batch_update(model, xs[:, start:stop], ys[:, start:stop],
                             wts[:, start:stop],
                             np.array([(stop - start) / n]), cfg)
        trace.append(float(model.loss(xs, ys, wts)[0]))
        if not np.isfinite(trace[-1]):
            break
    return model, trace


def _assert_same_label(model, trace, want_model, want_trace):
    assert trace == want_trace
    for (param, acc), (want_param, want_acc) in zip(model.params,
                                                    want_model.params):
        assert np.array_equal(param, want_param)
        assert np.array_equal(acc, want_acc)


def _lockstep_problem(n=250, n_labels=7, dim=4, seed=21):
    """Labels of very different frequencies; label 3 (in the middle) and
    label 6 (the last) have no positives."""
    rng = np.random.default_rng(seed)
    x = M.add_bias(rng.standard_normal((n, dim)))
    rates = np.array([0.5, 0.1, 0.3, 0.0, 0.05, 0.2, 0.0])[:n_labels]
    y = (rng.random((n, n_labels)) < rates).astype(float)
    # the label depends on the features, so that training moves the loss
    y[:, 0] = (x[:, 0] + 0.3 * rng.standard_normal(n) > 0).astype(float)
    return x, y


LOCKSTEP_CASES = {
    "logistic-b1": dict(model_kind="logistic", batch_size=1),
    "logistic-b32": dict(model_kind="logistic", batch_size=32),
    "hinge-b1": dict(model_kind="hinge", batch_size=1),
    "hinge-b32": dict(model_kind="hinge", batch_size=32),
    "moe-b1": dict(model_kind="moe", batch_size=1),
    "moe-b32": dict(model_kind="moe", batch_size=32),
    # the cap makes the sample sizes differ between labels, and with them
    # the number of full batches and the partial last batch
    "logistic-cap-b7": dict(model_kind="logistic", batch_size=7,
                            sample_cap=40),
    "hinge-cap-b32": dict(model_kind="hinge", batch_size=32, sample_cap=60),
    "moe-cap-b7": dict(model_kind="moe", batch_size=7, sample_cap=40),
    "moe-cap-b1": dict(model_kind="moe", batch_size=1, sample_cap=30),
}


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_lockstep_matches_per_label_reference(case):
    """train_all trains each block in lockstep; every label's weights,
    Adagrad accumulators and loss trace equal those of the label trained
    on its own, bit for bit. 250 rows at batch 32 end in a partial batch,
    and labels 3 and 6 are skipped."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(iterations=3, seed=5, learning_rate=0.3,
                           **LOCKSTEP_CASES[case])
    results = tr.train_all(data.LabelVocabulary.trivial(y.shape[1]), x, y,
                           cfg)
    assert [lid for lid, r in results.items() if r.skipped] == [3, 6]
    sizes = set()
    for label_id, res in results.items():
        if res.skipped:
            continue
        want_model, want_trace = _train_label_reference(
            tr._make_model(x.shape[1] - 1, 1, cfg), x, y[:, label_id], cfg,
            label_id)
        _assert_same_label(res.model, res.loss_trace, want_model, want_trace)
        sizes.add(tr._label_sample(label_id, y[:, label_id], cfg, 0)[0].size)
    if "cap" in case:
        assert len(sizes) > 2     # the sample sizes really differ


@pytest.mark.parametrize("kind", ["logistic", "moe"])
def test_lockstep_blocks_match_reference(kind, monkeypatch):
    """A block limit low enough to split the labels into blocks of two
    leaves every label's result unchanged."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(model_kind=kind, batch_size=7, sample_cap=40,
                           iterations=2, seed=6)
    whole = tr.train_all(data.LabelVocabulary.trivial(y.shape[1]), x, y, cfg)
    calls, real_train_label = [], tr.train_label

    def counting_train_label(*args):
        calls.append(args[4])
        return real_train_label(*args)

    monkeypatch.setattr(tr, "BLOCK_ELEMENTS", 2 * 7 * x.shape[1])
    monkeypatch.setattr(tr, "train_label", counting_train_label)
    split = tr.train_all(data.LabelVocabulary.trivial(y.shape[1]), x, y, cfg)
    assert calls == [[0, 1], [2, 4], [5]]
    for label_id, res in split.items():
        assert res.skipped == whole[label_id].skipped
        if not res.skipped:
            _assert_same_label(res.model, res.loss_trace,
                               whole[label_id].model,
                               whole[label_id].loss_trace)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lockstep_nonfinite_label_leaves_others_unchanged():
    """A label driven non-finite stops its trace at the first non-finite
    loss; the other labels of its block equal the reference."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(model_kind="logistic", batch_size=32,
                           iterations=3, seed=7)
    label_ids = [0, 1, 2]
    model = tr._make_model(x.shape[1] - 1, 3, cfg)
    model.weights[1] = 1e308          # overflows to inf on the first step
    model, traces = tr.train_label(model, x, y, cfg, label_ids)
    assert len(traces[1]) == 2 and not np.isfinite(traces[1][-1])
    for lane in (0, 2):
        want_model, want_trace = _train_label_reference(
            tr._make_model(x.shape[1] - 1, 1, cfg), x,
            y[:, label_ids[lane]], cfg, label_ids[lane])
        _assert_same_label(model.label(lane), traces[lane], want_model,
                           want_trace)


# ----------------------------------------------------------- prediction

def _bank(kind, rng, label_ids, dim):
    cfg = tr.TrainerConfig(model_kind=kind, n_experts=3)
    model = tr._make_model(dim, len(label_ids), cfg)
    for param, _ in model.params:
        param[...] = rng.standard_normal(param.shape)
    return tr.LabelBank(model, np.array(label_ids))


def test_predict_video_frame_level_average_pooling():
    rng = np.random.default_rng(9)
    bank = _bank("logistic", rng, [0], 3)
    frames = rng.standard_normal((6, 3))
    got = tr.predict_video_frame_level(bank, frames, np.array([0, 6]), 3)
    per_frame = [float(M.predict(bank.model, M.add_bias(f[None]))[0, 0])
                 for f in frames]
    assert got[0, 0] == pytest.approx(np.mean(per_frame), abs=1e-12)
    # labels without a model, the last ones included, score 0
    assert got.shape == (1, 3) and got[0, 1] == got[0, 2] == 0.0


def test_predict_video_level_matches_model():
    rng = np.random.default_rng(10)
    bank = _bank("moe", rng, [0, 1], 4)
    d = rng.standard_normal((5, 4))
    got = tr.predict_video_level(bank, d, 3)
    for lane in range(2):
        want = M.moe_predict(bank.model.label(lane), M.add_bias(d))[:, 0]
        np.testing.assert_allclose(got[:, lane], want, rtol=0, atol=1e-12)
    assert got.shape == (5, 3) and np.all(got[:, 2] == 0.0)


@pytest.mark.parametrize("kind", ["logistic", "hinge", "moe"])
def test_stacked_predict_matches_per_label(kind):
    """One stacked predict per partition equals the per-label, per-video
    predictions to 1e-12 at both levels; labels without a model score 0."""
    rng = np.random.default_rng(16)
    dim, label_ids, n_labels = 5, [0, 2, 3, 6], 8
    bank = _bank(kind, rng, label_ids, dim)
    labels = [bank.model.label(k) for k in range(len(label_ids))]

    descriptors = rng.standard_normal((7, dim))
    got = tr.predict_video_level(bank, descriptors, n_labels)
    want = np.zeros((7, n_labels))
    for v, d in enumerate(descriptors):
        for label_id, model in zip(label_ids, labels):
            want[v, label_id] = M.predict(model, M.add_bias(d[None]))[0, 0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    offsets = np.array([0, 1, 9, 12, 30])
    frames = rng.standard_normal((offsets[-1], dim))
    got = tr.predict_video_frame_level(bank, frames, offsets, n_labels)
    want = np.zeros((len(offsets) - 1, n_labels))
    for v in range(len(offsets) - 1):
        xb = M.add_bias(frames[offsets[v]:offsets[v + 1]])
        for label_id, model in zip(label_ids, labels):
            want[v, label_id] = np.mean(M.predict(model, xb)[:, 0])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_predict_empty_partition():
    bank = _bank("logistic", np.random.default_rng(17), [1], 3)
    assert tr.predict_video_frame_level(
        bank, np.zeros((0, 3)), np.array([0]), 4).shape == (0, 4)
    assert tr.predict_video_level(bank, np.zeros((0, 3)), 4).shape == (0, 4)


# -------------------------------------------------------- full-batch descent

def test_full_batch_logistic_loss_non_increasing():
    """Plain full-batch gradient descent on the convex logistic objective
    must never increase the loss at a suitable step size."""
    x, y = toy_problem(seed=11, n=150, dim=3, sep=1.0)
    model = M.LogisticModel.zeros(x.shape[1] - 1, l2=1e-6)
    lr = 0.05
    x, y, w = x[None], y[None], np.ones((1, len(y)))  # one label

    prev = model.loss(x, y, w)
    for _ in range(100):
        (grad,) = model.gradient(x, y, w)
        model.weights -= lr * grad
        cur = model.loss(x, y, w)
        assert cur <= prev + 1e-12
        prev = cur
