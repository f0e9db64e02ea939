"""Acceptance gate: one test per release criterion, each printing an
explicit PASS line with the measured quantities when it succeeds."""

import math
import os
import time

import numpy as np
import pytest

from vidbase import cli, data
from vidbase import metrics as mt
from vidbase import models as M
from vidbase import reference as ref
from vidbase import trainer as tr
from vidbase import aggregate, encoders, preprocess

from helpers import truth_matrix

FD_STEP = 1e-5
REL_TOL = 1e-6
ABS_TOL = 1e-8


def _fd_ok(analytic, numeric):
    tol = max(ABS_TOL, REL_TOL * max(abs(analytic), abs(numeric)))
    return abs(analytic - numeric) <= tol


def _central_diff(f, arr, i, step=FD_STEP):
    orig = arr.flat[i]
    arr.flat[i] = orig + step
    hi = f()
    arr.flat[i] = orig - step
    lo = f()
    arr.flat[i] = orig
    return (hi - lo) / (2 * step)


# ------------------------------------------------------------ criterion 1

def test_criterion_1_gradient_correctness():
    """The loss and gradient the trainer calls (`model.loss`,
    `model.gradient`) match central finite differences (1e-6 rel / 1e-8
    abs) for logistic, hinge away from the kink, and MoE H in {1, 2, 4},
    with the L2 term and batches of 1 to 4 weighted rows, on stacks of
    L in {1, 3} labels, on 1000 random instances per kind, in under
    30 s."""
    start = time.time()
    rng = np.random.default_rng(101)
    checked = 0

    def batch(dim, n_labels):
        n = int(rng.integers(1, 5))
        x = M.add_bias(rng.standard_normal((n_labels * n, dim)))
        return (x.reshape(n_labels, n, dim + 1),
                rng.integers(0, 2, size=(n_labels, n)).astype(float),
                0.5 + rng.random((n_labels, n)))

    def total_loss(m, x, y, w):
        # labels never interact, so the derivative of the summed loss by a
        # parameter is the gradient of that parameter's own label
        return lambda: float(np.sum(m.loss(x, y, w)))

    # logistic
    for n in range(1000):
        n_labels, dim = (1, 3)[n % 2], int(rng.integers(1, 17))
        m = M.LogisticModel(weights=rng.standard_normal((n_labels, dim + 1)),
                            l2=1e-3)
        x, y, w = batch(dim, n_labels)
        (grad,) = m.gradient(x, y, w, np.ones(n_labels))
        i = int(rng.integers(0, m.weights.size))  # one random coordinate
        assert _fd_ok(grad.flat[i],
                      _central_diff(total_loss(m, x, y, w), m.weights, i))
        checked += 1

    # hinge, instances with any row near the kink resampled
    done = 0
    while done < 1000:
        n_labels, dim = (1, 3)[done % 2], int(rng.integers(1, 17))
        m = M.HingeModel(weights=rng.standard_normal((n_labels, dim + 1)),
                         l2=1e-3)
        x, y, w = batch(dim, n_labels)
        scores = (x @ m.weights[:, :, None])[..., 0]
        if np.min(np.abs(m.margin - (2 * y - 1) * scores)) < 1e-3:
            continue
        (sub,) = m.gradient(x, y, w, np.ones(n_labels))
        i = int(rng.integers(0, m.weights.size))
        assert _fd_ok(sub.flat[i],
                      _central_diff(total_loss(m, x, y, w), m.weights, i))
        done += 1
        checked += 1

    # MoE over H in {1, 2, 4}
    for n in range(1000):
        h, n_labels = (1, 2, 4)[n % 3], (1, 3)[n % 2]
        dim = int(rng.integers(1, 17))
        shape = (n_labels, h, dim + 1)
        m = M.MoEModel(gating=0.5 * rng.standard_normal(shape),
                       experts=0.5 * rng.standard_normal(shape), l2=1e-3)
        x, y, w = batch(dim, n_labels)
        d_gating, d_expert = m.gradient(x, y, w, np.ones(n_labels))
        i = int(rng.integers(0, m.gating.size))
        loss = total_loss(m, x, y, w)
        assert _fd_ok(d_gating.flat[i], _central_diff(loss, m.gating, i))
        assert _fd_ok(d_expert.flat[i], _central_diff(loss, m.experts, i))
        checked += 1

    elapsed = time.time() - start
    assert elapsed < 30.0
    print("[PASS] criterion 1: %d gradient instances matched finite "
          "differences in %.1fs" % (checked, elapsed))


# ------------------------------------------------------------ criterion 2

def test_criterion_2_moe_structural_identities():
    """Gating over H+1 states sums to 1 +/- 1e-9; H=1 prediction equals the
    product of two logistics to 1e-12, on 1000 random instances each."""
    from scipy.special import expit
    rng = np.random.default_rng(202)
    for _ in range(1000):
        h = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 10))
        m = M.MoEModel(gating=2.0 * rng.standard_normal((1, h, dim + 1)),
                       experts=2.0 * rng.standard_normal((1, h, dim + 1)))
        x = M.add_bias(rng.standard_normal(dim))
        gate = M.moe_gating(m, x[None])
        dummy = 1.0 / (1.0 + float(np.sum(np.exp(m.gating[0] @ x))))
        assert abs(float(gate.sum()) + dummy - 1.0) <= 1e-9

    for _ in range(1000):
        dim = int(rng.integers(1, 10))
        m = M.MoEModel(gating=1.5 * rng.standard_normal((1, 1, dim + 1)),
                       experts=1.5 * rng.standard_normal((1, 1, dim + 1)))
        x = M.add_bias(rng.standard_normal(dim))
        product = float(expit(m.gating[0, 0] @ x)
                        * expit(m.experts[0, 0] @ x))
        assert abs(float(M.moe_predict(m, x[None])[0, 0]) - product) <= 1e-12

    print("[PASS] criterion 2: gating sums and H=1 product identity held "
          "on 1000 instances each")


# ------------------------------------------------------------ criterion 3

def test_criterion_3_reweighting_identities():
    """w+Sp/(w-Sn) = Tp/Tn to 1e-9 and w+*w- = 1 to 1e-12 across 100 random
    (Tp, Tn, cap) configurations plus the worked case w+ = sqrt(0.1)."""
    mask = np.zeros(10_100, dtype=bool)
    mask[:100] = True
    plan = tr.build_sampling_plan(0, mask, cap=1000, seed=0)
    assert plan.sampled_pos == 100 and plan.sampled_neg == 1000
    assert abs(plan.w_plus - math.sqrt(0.1)) <= 1e-12

    rng = np.random.default_rng(303)
    for n in range(100):
        tp = int(rng.integers(1, 2000))
        tn = int(rng.integers(1, 2000))
        cap = int(rng.integers(1, 1500))
        mask = np.zeros(tp + tn, dtype=bool)
        mask[rng.choice(tp + tn, size=tp, replace=False)] = True
        plan = tr.build_sampling_plan(n, mask, cap=cap, seed=n)
        lhs = (plan.w_plus * plan.sampled_pos) / (plan.w_minus * plan.sampled_neg)
        assert abs(lhs - tp / tn) <= 1e-9 * max(1.0, tp / tn)
        assert abs(plan.w_plus * plan.w_minus - 1.0) <= 1e-12

    print("[PASS] criterion 3: reweighting identities held on 100 random "
          "configurations and the worked case")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_metric_oracle_equivalence():
    """Fast bucketed AP / mAP / Hit@k / PERR are bit-equal to the
    brute-force references on 1000 random instances (L <= 10, V <= 50,
    heavy ties) in under 60 s."""
    start = time.time()
    rng = np.random.default_rng(404)
    n_map = n_rank = 0
    for _ in range(1000):
        n_videos = int(rng.integers(1, 51))
        n_labels = int(rng.integers(2, 11))
        # coarse score grid forces many tie configurations
        scores = rng.integers(0, 12, size=(n_videos, n_labels)) / 11.0
        truths = [frozenset(int(l) for l in rng.choice(
            n_labels, size=min(int(rng.integers(0, 4)), n_labels),
            replace=False)) for _ in range(n_videos)]
        p = mt.PredictionSet(video_ids=[str(i) for i in range(n_videos)],
                             scores=scores,
                             truths=truth_matrix(truths, n_labels))
        if any(any(e in g for g in truths) for e in range(n_labels)):
            fast, fast_pc, fast_skip = mt.mean_average_precision(p)
            slow, slow_pc, slow_skip = ref.brute_force_mean_ap(p)
            assert fast == slow and fast_pc == slow_pc
            assert fast_skip == slow_skip
            n_map += 1
        if any(truths):
            for k in (1, 5, n_labels):
                assert mt.hit_at_k(p, k) == ref.brute_force_hit_at_k(p, k)
            assert mt.perr(p) == ref.brute_force_perr(p)
            n_rank += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print("[PASS] criterion 4: bit-equal to oracle on 1000 instances "
          "(%d mAP, %d ranking) in %.1fs" % (n_map, n_rank, elapsed))


# ------------------------------------------------------------ criterion 5

def test_criterion_5_encoder_closed_forms():
    """FV on {1, -1} with a unit single-component GMM is the zero vector to
    1e-12; FV dim is 2ND and VLAD dim is kD over a grid; VLAD k=1 hand case
    matches (1/sqrt(2), 1/sqrt(2)) to 1e-9."""
    gmm = encoders.GmmCodebook(weights=[1.0], means=[[0.0]], variances=[[1.0]])
    fv = encoders.encode_fisher(np.array([[1.0], [-1.0]]), gmm)
    assert np.max(np.abs(fv)) <= 1e-12

    rng = np.random.default_rng(505)
    grid = [(1, 1, 2), (2, 3, 4), (4, 2, 8), (8, 5, 3), (16, 4, 6)]
    for n_frames, k, dim in grid:
        g = encoders.GmmCodebook(weights=np.full(k, 1.0 / k),
                                 means=rng.standard_normal((k, dim)),
                                 variances=np.ones((k, dim)))
        fv = encoders.encode_fisher(rng.standard_normal((n_frames, dim)), g)
        assert fv.shape == (2 * k * dim,)
        cb = encoders.KmeansCodebook(centers=rng.standard_normal((k, dim)))
        v = encoders.encode_vlad(rng.standard_normal((n_frames, dim)), cb)
        assert v.shape == (k * dim,)

    cb = encoders.KmeansCodebook(centers=[[0.0, 0.0]])
    v = encoders.encode_vlad(np.array([[1.0, 0.0], [0.0, 1.0]]), cb)
    assert np.max(np.abs(v - 1.0 / np.sqrt(2.0))) <= 1e-9
    print("[PASS] criterion 5: encoder closed forms and dimension grid "
          "verified (%d grid points)" % len(grid))


# ------------------------------------------------------------ criterion 6

def test_criterion_6_preprocessing():
    """Whitened covariance within 5e-2 of I at n=10000, D=32; uniform-data
    quantizer boundaries within 5e-3 of the j/256 quantiles at n=1e6;
    whiten -> quantize -> reconstruct relative error under 5%."""
    rng = np.random.default_rng(606)
    sample = rng.standard_normal((10_000, 32)) @ rng.standard_normal((32, 32))
    t = preprocess.fit_whitening(sample, d_out=32)
    z = preprocess.apply_whitening(t, sample, l2_normalize=False)
    cov = z.T @ z / len(z)
    cov_err = float(np.max(np.abs(cov - np.eye(32))))
    assert cov_err <= 5e-2

    uniform = rng.random((1_000_000, 1))
    q = preprocess.fit_quantizer(uniform)
    boundary_err = float(np.max(np.abs(q.boundaries[0]
                                       - np.arange(1, 256) / 256)))
    assert boundary_err <= 5e-3

    gauss = rng.standard_normal((20_000, 8)) * rng.random(8) + rng.random(8)
    t2 = preprocess.fit_whitening(gauss, d_out=8)
    z2 = preprocess.apply_whitening(t2, gauss, l2_normalize=False)
    q2 = preprocess.fit_quantizer(z2)
    x_hat = preprocess.invert_whitening(
        t2, preprocess.dequantize(q2, preprocess.quantize(q2, z2)))
    rel = float(np.linalg.norm(x_hat - gauss) / np.linalg.norm(gauss))
    assert rel < 0.05
    print("[PASS] criterion 6: cov err %.4f <= 5e-2, boundary err %.5f "
          "<= 5e-3, round-trip rel err %.4f < 5%%"
          % (cov_err, boundary_err, rel))


# ----------------------------------------------- criteria 7 and 8 pipeline

def _run_pipeline(root, seed=7, workers=1):
    """gen -> preprocess -> encode -> train -> predict -> evaluate, both
    video-level (MoE-2 on [mean; std; top5]) and frame-level (logistic)."""
    paths = {name: os.path.join(root, name)
             for name in ("corpus", "prep", "desc", "bank", "fbank")}
    s = str(seed)
    assert cli.main(["gen-synthetic", "--out", paths["corpus"], "--seed", s,
                     "--labels", "8", "--videos", "2000", "--dim", "32"]) == 0
    assert cli.main(["preprocess", "--data", paths["corpus"],
                     "--out", paths["prep"]]) == 0
    assert cli.main(["encode", "--data", paths["prep"], "--out", paths["desc"],
                     "--method", "stats", "--topk", "5", "--seed", s]) == 0

    assert cli.main(["train", "--descriptors", paths["desc"],
                     "--vocab-dir", paths["corpus"], "--out", paths["bank"],
                     "--model", "moe", "--mixtures", "2", "--level", "video",
                     "--iterations", "10", "--seed", s,
                     "--workers", str(workers)]) == 0
    vp = os.path.join(root, "video_preds.txt")
    vr = os.path.join(root, "video_report.txt")
    assert cli.main(["predict", "--bank", paths["bank"],
                     "--descriptors", paths["desc"], "--partition", "test",
                     "--out", vp]) == 0
    assert cli.main(["evaluate", "--predictions", vp,
                     "--descriptors", paths["desc"], "--partition", "test",
                     "--out", vr]) == 0

    assert cli.main(["train", "--data", paths["prep"],
                     "--vocab-dir", paths["corpus"], "--out", paths["fbank"],
                     "--model", "logistic", "--level", "frame",
                     "--iterations", "3", "--seed", s,
                     "--workers", str(workers)]) == 0
    fp = os.path.join(root, "frame_preds.txt")
    fr = os.path.join(root, "frame_report.txt")
    assert cli.main(["predict", "--bank", paths["fbank"],
                     "--data", paths["prep"], "--partition", "test",
                     "--out", fp]) == 0
    assert cli.main(["evaluate", "--predictions", fp, "--data", paths["prep"],
                     "--partition", "test", "--out", fr]) == 0
    return paths, vr, fr


def _read_report(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.split("=", 1) for line in fh.read().splitlines())


def test_criterion_7_end_to_end_benchmark(tmp_path):
    """L=8, V=2000, D=32 planted clusters: video-level MoE-2 on
    [mean; std; top5] reaches Hit@1 >= 0.95 and mAP >= 0.90; frame-level
    logistic with average pooling reaches Hit@1 >= 0.85; under 5 minutes."""
    start = time.time()
    _, video_report, frame_report = _run_pipeline(str(tmp_path))
    elapsed = time.time() - start
    video = _read_report(video_report)
    frame = _read_report(frame_report)
    assert float(video["Hit@1"]) >= 0.95
    assert float(video["mAP"]) >= 0.90
    assert float(frame["Hit@1"]) >= 0.85
    assert elapsed < 300.0
    print("[PASS] criterion 7: video Hit@1=%s mAP=%s, frame Hit@1=%s, "
          "pipeline %.0fs < 300s" % (video["Hit@1"], video["mAP"],
                                     frame["Hit@1"], elapsed))


def test_criterion_8_determinism(tmp_path):
    """Re-running the criterion-7 pipeline with the same seed gives
    byte-identical model banks and reports; workers 1 vs 8 change nothing
    (the flag is accepted and has no effect)."""
    runs = {}
    for tag, workers in (("a", 1), ("b", 1), ("w8", 8)):
        root = tmp_path / tag
        root.mkdir()
        runs[tag] = _run_pipeline(str(root), seed=11, workers=workers)

    def bank_bytes(paths, key):
        out = {}
        for name in sorted(os.listdir(paths[key])):
            with open(os.path.join(paths[key], name), "rb") as fh:
                out[name] = fh.read()
        return out

    base_paths, base_vr, base_fr = runs["a"]
    for tag in ("b", "w8"):
        paths, vr, fr = runs[tag]
        for key in ("bank", "fbank"):
            assert bank_bytes(base_paths, key) == bank_bytes(paths, key)
        with open(base_vr, "rb") as x, open(vr, "rb") as y:
            assert x.read() == y.read()
        with open(base_fr, "rb") as x, open(fr, "rb") as y:
            assert x.read() == y.read()
    print("[PASS] criterion 8: repeat runs and workers 1 vs 8 are "
          "byte-identical (banks and reports)")


# ------------------------------------------------------------ criterion 9

def test_criterion_9_convexity_sanity():
    """Full-batch gradient descent on the convex logistic objective never
    increases the loss across 100 epochs (tolerance 1e-12 per step)."""
    rng = np.random.default_rng(909)
    for trial in range(5):
        n, dim = 200, int(rng.integers(2, 8))
        x = M.add_bias(rng.standard_normal((n, dim)))
        y = (rng.random(n) < 0.5).astype(float)
        model = M.LogisticModel.zeros(dim, l2=1e-6)
        lr = 0.5 / n  # safe step: the logistic Hessian bound is n/4 per coord

        x, y, w = x[None], y[None], np.ones((1, n))  # one label
        prev = model.loss(x, y, w)
        for _ in range(100):
            (grad,) = model.gradient(x, y, w)
            model.weights -= lr * grad
            cur = model.loss(x, y, w)
            assert cur <= prev + 1e-12
            prev = cur
    print("[PASS] criterion 9: full-batch logistic loss non-increasing over "
          "100 epochs on 5 datasets")
