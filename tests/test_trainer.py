import math
import sys

import numpy as np
import pytest

from vidbase import data
from vidbase import models as M
from vidbase import trainer as tr

from helpers import video_frames


def model_bytes(model):
    """A model's settings and its arrays' bytes: equal for models that are
    equal bit for bit."""
    arrays, settings = M.serialize_model(model)
    return settings, [(name, a.dtype.str, a.shape, a.tobytes())
                      for name, a in arrays.items()]


def toy_problem(seed=0, n=400, dim=4, sep=4.0):
    """Linearly separable two-class cloud, returned with bias appended."""
    rng = np.random.default_rng(seed)
    half = n // 2
    pos = rng.standard_normal((half, dim)) + sep / 2
    neg = rng.standard_normal((n - half, dim)) - sep / 2
    x = M.add_bias(np.concatenate([pos, neg]))
    y = np.arange(n) < half
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


def _drawn_samples(label_id, mask, cap, seed):
    """Reference: both classes drawn with rng.choice whatever the cap, as
    build_sampling_plan did before it skipped the draws that take every
    row of a class."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, label_id]))
    pos_idx, neg_idx = np.flatnonzero(mask), np.flatnonzero(~mask)
    return (np.sort(rng.choice(pos_idx, size=min(cap, len(pos_idx)),
                               replace=False)),
            np.sort(rng.choice(neg_idx, size=min(cap, len(neg_idx)),
                               replace=False)))


@pytest.mark.parametrize("cap", [30, 80, 10, 500],
                         ids=["positives-bind", "negatives-bind", "both-bind",
                              "neither-binds"])
def test_sampling_plan_matches_drawing_every_class(cap):
    # 60 positives and 100 negatives among 160 rows
    mask = np.zeros(160, dtype=bool)
    mask[np.random.default_rng(4).choice(160, size=60, replace=False)] = True
    plan = tr.build_sampling_plan(6, mask, cap=cap, seed=13)
    pos, neg = _drawn_samples(6, mask, cap, 13)
    for got, want in ((plan.pos_indices, pos), (plan.neg_indices, neg)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sampling_plan_one_class_fails():
    with pytest.raises(tr.TrainingError):
        tr.build_sampling_plan(0, np.ones(10, dtype=bool), cap=5, seed=0)
    with pytest.raises(tr.TrainingError):
        tr.build_sampling_plan(0, np.zeros(10, dtype=bool), cap=5, seed=0)


# ------------------------------------------------------- frame expansion

def _tiny_videos(seed=0, n_videos=5, dim=3, frames=(2, 40)):
    return data.generate_synthetic(seed, 2, n_videos, dim,
                                   frames_min=frames[0], frames_max=frames[1])


def _expand_per_video_reference(partition, frames_per_video, seed):
    # Test-only reference: the per-video loop that gathers one row at a time
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0xF8A3]))
    rows, video_index = [], []
    for vi, frames in enumerate(video_frames(partition)):
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
    pools = list(video_frames(videos))
    for i, vi in enumerate(vidx):
        pool = pools[vi].astype(np.float64)
        assert any(np.array_equal(frames[i], row) for row in pool)


def test_expand_frame_examples_deterministic():
    videos = _tiny_videos(seed=2)
    a = tr.expand_frame_examples(videos, 10, seed=5)
    b = tr.expand_frame_examples(videos, 10, seed=5)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# --------------------------------------------------------------- training

def test_config_rejects_a_negative_l2():
    # a negative L2 term makes the regularized loss unbounded below; zero
    # leaves the loss unregularized
    with pytest.raises(ValueError, match="l2"):
        tr.TrainerConfig(l2=-0.5)
    assert tr.TrainerConfig(l2=0.0).l2 == 0.0


@pytest.mark.parametrize("name", ["learning_rate", "batch_size",
                                  "iterations", "sample_cap", "n_experts"])
def test_config_names_a_setting_below_its_bound(name):
    with pytest.raises(ValueError, match="^%s must be positive$" % name):
        tr.TrainerConfig(**{name: 0})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["learning_rate", "l2", "hinge_margin"])
def test_config_rejects_a_non_finite_setting(name, value):
    # NaN passes every comparison-based check, so it is refused by name
    with pytest.raises(ValueError, match="%s must be finite" % name):
        tr.TrainerConfig(**{name: value})


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
    """_batch_update adds each step's squared gradients to the state's
    accumulators, which never fall, and updates the params in place."""
    x, y = toy_problem(seed=6, n=200)
    for kind in ("logistic", "hinge", "moe"):
        cfg = tr.TrainerConfig(model_kind=kind, seed=3)
        model = tr._make_model(x.shape[1] - 1, 1, cfg)
        state = [(param, np.zeros_like(param)) for param in model.params]
        snapshots = [[acc.copy() for _, acc in state]]
        for start in range(0, 200, 40):
            rows = slice(start, start + 40)
            tr._batch_update(model, state, x[None, rows], y[None, rows],
                             np.ones((1, 40)), np.array([0.2]), cfg)
            snapshots.append([acc.copy() for _, acc in state])
        assert all(p is q for p, (q, _) in zip(model.params, state))
        assert np.any(model.params[-1] != 0.0)
        for before, after in zip(snapshots, snapshots[1:]):
            for a, b in zip(before, after):
                assert np.all(b >= a)
        assert all(np.any(acc > 0.0) for acc in snapshots[1])


def test_bias_excluded_from_regularizer():
    # with only the bias active, a huge l2 must not produce any update force
    # beyond the data term: compare to an identical run with l2 = 0
    x = np.ones((50, 1))  # bias-only design
    y = np.arange(50) < 25
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
    y = np.array([[True], [False]])
    cfg = tr.TrainerConfig(model_kind="hinge", learning_rate=1e280,
                           iterations=3, seed=5)
    _, (trace,) = tr.train_label(tr._make_model(1, 1, cfg), x, y, cfg, [0])
    assert len(trace) == 2 and not np.isfinite(trace[-1])
    (result,) = tr.train_all(x, y, cfg).values()
    assert result.skipped and result.model is None
    assert result.reason == "non-finite loss for label 0 at iteration 0"


# --------------------------------------------------------- orchestration

def _bank_problem(seed=7, n=240, n_labels=4, dim=3):
    rng = np.random.default_rng(seed)
    centers = 4.0 * rng.standard_normal((n_labels, dim))
    y = np.zeros((n, n_labels), dtype=bool)
    rows = np.empty((n, dim))
    for i in range(n):
        e = i % n_labels
        rows[i] = centers[e] + 0.3 * rng.standard_normal(dim)
        y[i, e] = True
    return M.add_bias(rows), y


def test_train_all_skips_single_class_labels():
    x, y = _bank_problem(n_labels=3)
    # label 3 empty
    y = np.concatenate([y, np.zeros((len(y), 1), dtype=bool)], axis=1)
    cfg = tr.TrainerConfig(model_kind="logistic", iterations=2, seed=7)
    results = tr.train_all(x, y, cfg)
    assert results[3].skipped and "positive" in results[3].reason
    assert all(not results[e].skipped for e in range(3))


@pytest.mark.parametrize("kind", ["logistic", "moe"])
def test_train_all_deterministic_rerun(kind):
    x, y = _bank_problem(seed=8)
    cfg = tr.TrainerConfig(model_kind=kind, iterations=4, seed=8)
    a = tr.train_all(x, y, cfg)
    b = tr.train_all(x, y, cfg)
    for lid in a:
        assert model_bytes(a[lid].model) == model_bytes(b[lid].model)
        assert a[lid].loss_trace == b[lid].loss_trace


# ------------------------------------------------- lockstep equivalence

def _train_label_reference(model, x, y, cfg, label_id, trace_order=False):
    """Test-only reference: one label trained on its own, one mini-batch
    after another, as the trainer did before labels ran in lockstep. Each
    loss-trace entry sums over every row of x in partition order, with
    weight 0 on the rows outside the label's sample, or, with
    `trace_order`, over the sample in training order as the trainer did
    before. Stops after the first non-finite loss, which ends the trace."""
    trace = []
    state = [(param, np.zeros_like(param)) for param in model.params]
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
        if trace_order:
            xt, yt, wt = (x[idx[order]][None], y[idx[order]][None],
                          wts[order][None])
        else:
            xt, yt, wt = x, y[None], np.zeros((1, len(x)))
            wt[0, idx] = wts
        idx, wts = idx[order], wts[order]
        xs, ys, wts = x[idx][None], y[idx][None], wts[None]

        if it == 0:
            trace.append(float(model.loss(xt, yt, wt)[0]))
        n = len(idx)
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            tr._batch_update(model, state, xs[:, start:stop],
                             ys[:, start:stop], wts[:, start:stop],
                             np.array([(stop - start) / n]), cfg)
        trace.append(float(model.loss(xt, yt, wt)[0]))
        if not np.isfinite(trace[-1]):
            break
    return model, trace


def _assert_same_label(model, trace, want_model, want_trace):
    assert trace == want_trace
    for param, want_param in zip(model.params, want_model.params):
        assert np.array_equal(param, want_param)


def _lockstep_problem(n=250, n_labels=7, dim=4, seed=21):
    """Labels of very different frequencies; label 3 (in the middle) and
    label 6 (the last) have no positives."""
    rng = np.random.default_rng(seed)
    x = M.add_bias(rng.standard_normal((n, dim)))
    rates = np.array([0.5, 0.1, 0.3, 0.0, 0.05, 0.2, 0.0])[:n_labels]
    y = rng.random((n, n_labels)) < rates
    # the label depends on the features, so that training moves the loss
    y[:, 0] = x[:, 0] + 0.3 * rng.standard_normal(n) > 0
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
    """train_all trains each block in lockstep; every label's parameters
    and loss trace equal those of the label trained on its own, bit for
    bit. 250 rows at batch 32 end in a partial batch, and labels 3 and 6
    are skipped."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(iterations=3, seed=5, learning_rate=0.3,
                           **LOCKSTEP_CASES[case])
    results = tr.train_all(x, y, cfg)
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


def _count_train_label_calls(monkeypatch):
    calls, real_train_label = [], tr.train_label

    def counting_train_label(*args):
        calls.append(args[4])
        return real_train_label(*args)

    monkeypatch.setattr(tr, "train_label", counting_train_label)
    return calls


@pytest.mark.parametrize("kind", ["logistic", "moe"])
def test_lockstep_blocks_match_reference(kind, monkeypatch):
    """A block limit low enough to split the labels into blocks of two
    leaves every label's result unchanged."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(model_kind=kind, batch_size=7, sample_cap=40,
                           iterations=2, seed=6)
    whole = tr.train_all(x, y, cfg)
    monkeypatch.setattr(tr, "BLOCK_ELEMENTS", 2 * 7 * x.shape[1])
    calls = _count_train_label_calls(monkeypatch)
    split = tr.train_all(x, y, cfg)
    assert calls == [[0, 1], [2, 4], [5]]
    for label_id, res in split.items():
        assert res.skipped == whole[label_id].skipped
        if not res.skipped:
            _assert_same_label(res.model, res.loss_trace,
                               whole[label_id].model,
                               whole[label_id].loss_trace)


@pytest.mark.parametrize("case", ["logistic-b32", "hinge-cap-b32",
                                  "moe-b1", "moe-cap-b7"])
def test_partition_order_trace_matches_training_order(case):
    """Each loss-trace entry sums over every row in partition order, with
    weight 0 outside the label's sample; it equals the sum over the sample
    in training order up to rounding."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(iterations=3, seed=5, learning_rate=0.3,
                           **LOCKSTEP_CASES[case])
    for label_id in (0, 1, 5):
        runs = [_train_label_reference(tr._make_model(x.shape[1] - 1, 1, cfg),
                                       x, y[:, label_id], cfg, label_id,
                                       trace_order=trace_order)
                for trace_order in (False, True)]
        (model, trace), (want_model, want_trace) = runs
        assert len(trace) == cfg.iterations + 1
        assert model_bytes(model) == model_bytes(want_model)
        assert np.allclose(trace, want_trace, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["logistic", "hinge", "moe"])
def test_train_all_workers_give_identical_banks(kind, monkeypatch):
    """Blocks trained on 1, 2, 3 or 8 threads give byte-identical models
    and equal loss traces; with more than one block, the block count is
    rounded up to a multiple of the worker count, but not past one label
    per block."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(model_kind=kind, batch_size=7, sample_cap=40,
                           iterations=2, seed=9)
    monkeypatch.setattr(tr, "BLOCK_ELEMENTS", 2 * 7 * x.shape[1])
    calls = _count_train_label_calls(monkeypatch)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as possible
    try:
        for workers in (1, 2, 3, 8):
            del calls[:]
            runs[workers] = tr.train_all(x, y, cfg, workers=workers)
            assert len(calls) == {1: 3, 2: 4, 3: 3, 8: 5}[workers]
            assert sorted(sum(calls, [])) == [0, 1, 2, 4, 5]
    finally:
        sys.setswitchinterval(interval)
    for workers in (2, 3, 8):
        for label_id, res in runs[workers].items():
            want = runs[1][label_id]
            assert res.skipped == want.skipped
            assert res.loss_trace == want.loss_trace
            if not res.skipped:
                assert model_bytes(res.model) == model_bytes(want.model)


def test_train_all_single_block_ignores_workers(monkeypatch):
    """Labels that fit in one block are trained in one train_label call,
    whatever the worker count."""
    x, y = _lockstep_problem()
    cfg = tr.TrainerConfig(model_kind="logistic", batch_size=7,
                           iterations=1, seed=9)
    calls = _count_train_label_calls(monkeypatch)
    tr.train_all(x, y, cfg, workers=8)
    assert calls == [[0, 1, 2, 4, 5]]


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


LOSS_CASES = {
    "logistic": dict(model_kind="logistic"),
    "hinge-cap": dict(model_kind="hinge", sample_cap=60),
    "moe-h1": dict(model_kind="moe", n_experts=1),
    "moe-h1-cap": dict(model_kind="moe", n_experts=1, sample_cap=60),
    "moe-h2": dict(model_kind="moe", n_experts=2),
    "moe-h2-cap": dict(model_kind="moe", n_experts=2, sample_cap=60),
}


def _many_labels_problem(n, dim, n_labels, seed=23):
    """n rows of dim features and a bias; each label has its own rate. The
    last 8 rows are 30 times larger, so that their losses weigh in every
    sum: a 1-ulp change of their scores (a gemm's tail rows may round
    differently) then shows in the loss trace."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    x[-8:] *= 30.0
    x = M.add_bias(x)
    y = rng.random((n, n_labels)) < rng.uniform(0.05, 0.5, n_labels)
    return x, y


def _train_in_blocks(x, y, cfg, block):
    """The loss traces of every label of y, trained in blocks of `block`."""
    traces = []
    for lo in range(0, y.shape[1], block):
        label_ids = list(range(lo, min(lo + block, y.shape[1])))
        model = tr._make_model(x.shape[1] - 1, len(label_ids), cfg)
        traces += tr.train_label(model, x, y, cfg, label_ids)[1]
    return traces


@pytest.mark.parametrize("shape", [(250, 4), (1200, 48)],
                         ids=["n250-d5", "n1200-d49"])
@pytest.mark.parametrize("case", list(LOSS_CASES))
def test_loss_trace_bits_do_not_depend_on_the_block(case, shape):
    """A label's loss trace has the same bits alone and in blocks of 2, 3
    and 100 labels: a block scores the shared x with one gemm, whose
    column for a label does not depend on the other labels."""
    x, y = _many_labels_problem(*shape, n_labels=100)
    cfg = tr.TrainerConfig(batch_size=32, iterations=2, seed=3,
                           learning_rate=0.3, **LOSS_CASES[case])
    want = _train_in_blocks(x, y, cfg, 100)
    for block in (1, 2, 3):
        assert _train_in_blocks(x, y, cfg, block) == want


@pytest.mark.parametrize("case", list(LOSS_CASES))
def test_loss_chunks_do_not_change_results(case, monkeypatch):
    """Chunks of one lane and one chunk for the whole block give the same
    loss traces and models."""
    x, y = _many_labels_problem(250, 4, n_labels=9)
    cfg = tr.TrainerConfig(batch_size=7, iterations=2, seed=4,
                           learning_rate=0.3, **LOSS_CASES[case])
    runs = []
    for elements in (len(x), 1 << 30):
        monkeypatch.setattr(tr, "LOSS_ELEMENTS", elements)
        runs.append(tr.train_label(tr._make_model(x.shape[1] - 1, 9, cfg),
                                   x, y, cfg, list(range(9))))
    (model, traces), (want_model, want_traces) = runs
    assert traces == want_traces
    assert model_bytes(model) == model_bytes(want_model)


# ----------------------------------------------------------- prediction

def _bank(kind, rng, label_ids, dim):
    cfg = tr.TrainerConfig(model_kind=kind, n_experts=3)
    model = tr._make_model(dim, len(label_ids), cfg)
    for param in model.params:
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


@pytest.mark.parametrize("kind", ["logistic", "moe"])
@pytest.mark.parametrize("batch_size", [1, 3])
def test_lockstep_span_does_not_change_results(kind, batch_size,
                                               monkeypatch):
    """A pass gathers the rows of many steps at once; spans of one step,
    of three steps and of the whole pass give the same models and loss
    traces. The cap makes the labels' samples differ in size, so some
    labels run out of full batches early and the partial batches differ
    in width."""
    x, y = _lockstep_problem()
    label_ids = [0, 1, 2, 4, 5]
    cfg = tr.TrainerConfig(model_kind=kind, batch_size=batch_size,
                           sample_cap=30, iterations=2, seed=4,
                           learning_rate=0.3)
    sizes = np.array([tr._label_sample(label_id, y[:, label_id], cfg, 0)[0]
                      .size for label_id in label_ids])
    assert len(set((sizes // batch_size).tolist())) > 1
    if batch_size > 1:
        assert len(set((sizes % batch_size).tolist()) - {0}) > 1
    runs = []
    for span_steps in (1, 3, None):
        if span_steps is not None:
            monkeypatch.setattr(tr, "SPAN_ELEMENTS", span_steps * len(label_ids)
                                * batch_size * x.shape[1])
        runs.append(tr.train_label(tr._make_model(x.shape[1] - 1,
                                                  len(label_ids), cfg),
                                   x, y, cfg, label_ids))
        monkeypatch.undo()
    (want_model, want_traces) = runs[-1]
    for model, traces in runs[:-1]:
        assert traces == want_traces
        for param, want_param in zip(model.params, want_model.params):
            assert np.array_equal(param, want_param)
