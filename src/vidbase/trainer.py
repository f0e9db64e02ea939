"""Online per-label training: capped sampling with distribution-preserving
reweighting, Adagrad updates through each model's own loss and gradient,
frame-level label assignment, and frame-level inference via average
pooling."""

import math
from dataclasses import dataclass

import numpy as np

from . import models as M

DEFAULT_SAMPLE_CAP = 200_000


class TrainingError(Exception):
    pass


@dataclass
class SamplingPlan:
    label_id: int
    cap: int
    seed: int
    true_pos: int
    true_neg: int
    sampled_pos: int
    sampled_neg: int
    w_plus: float
    w_minus: float
    pos_indices: np.ndarray
    neg_indices: np.ndarray


@dataclass
class TrainerConfig:
    learning_rate: float = 1.0
    batch_size: int = 32
    l2: float = 1e-6
    iterations: int = 10
    adagrad_epsilon: float = 1e-6
    sample_cap: int = DEFAULT_SAMPLE_CAP
    frames_per_video: int = 20
    seed: int = 0
    model_kind: str = "moe"       # logistic | hinge | moe
    n_experts: int = 2
    hinge_margin: float = 1.0

    def __post_init__(self):
        if min(self.learning_rate, self.batch_size, self.l2 + 1,
               self.iterations, self.adagrad_epsilon, self.sample_cap,
               self.frames_per_video) <= 0:
            raise ValueError("config values must be positive")
        if self.model_kind not in ("logistic", "hinge", "moe"):
            raise ValueError("unknown model kind %r" % self.model_kind)


@dataclass
class LabelResult:
    label_id: int
    model: object
    loss_trace: list
    skipped: bool = False
    reason: str = ""


def _derive_seed(*parts):
    """Stable per-(label, iteration) RNG seed from the global seed."""
    return int(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
               .generate_state(1)[0])


def build_sampling_plan(label_id, positives_mask, cap, seed):
    """Uniform without-replacement sampling of up to `cap` examples per
    class, with scales w+ = 1/w- = sqrt(Tp*Sn / (Tn*Sp)) restoring the
    true positive/negative mass ratio."""
    mask = np.asarray(positives_mask).astype(bool)
    pos_idx = np.flatnonzero(mask)
    neg_idx = np.flatnonzero(~mask)
    true_pos, true_neg = len(pos_idx), len(neg_idx)
    if true_pos == 0 or true_neg == 0:
        raise TrainingError("label %d has no %s examples"
                            % (label_id, "positive" if true_pos == 0 else "negative"))

    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF,
                                                        int(label_id)]))
    sampled_pos = min(cap, true_pos)
    sampled_neg = min(cap, true_neg)
    pos_sample = np.sort(rng.choice(pos_idx, size=sampled_pos, replace=False))
    neg_sample = np.sort(rng.choice(neg_idx, size=sampled_neg, replace=False))

    w_plus = math.sqrt((true_pos * sampled_neg) / (true_neg * sampled_pos))
    return SamplingPlan(label_id=label_id, cap=cap, seed=seed,
                        true_pos=true_pos, true_neg=true_neg,
                        sampled_pos=sampled_pos, sampled_neg=sampled_neg,
                        w_plus=w_plus, w_minus=1.0 / w_plus,
                        pos_indices=pos_sample, neg_indices=neg_sample)


def expand_frame_examples(partition, frames_per_video, seed):
    """Sample up to `frames_per_video` distinct frames per video of a
    partition. Returns (frames, video_index): the sampled frames as float64
    rows, and for each row the index of its video."""
    if frames_per_video < 1:
        raise ValueError("frames_per_video must be >= 1")
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0xF8A3]))
    counts = np.diff(partition.offsets)
    picks = [np.sort(rng.choice(n, size=min(n, frames_per_video),
                                replace=False))
             for n in counts.tolist()]
    video_index = np.repeat(np.arange(len(counts)),
                            np.minimum(counts, frames_per_video))
    rows = partition.offsets[video_index] + np.concatenate(
        [np.empty(0, dtype=np.int64)] + picks)
    return partition.frames[rows].astype(np.float64), video_index


def _adagrad_step(weights, grad_sq, grad, lr, eps):
    grad_sq += grad * grad
    weights -= lr * grad / np.sqrt(grad_sq + eps)


def _batch_update(model, xb, yb, wb, reg_scale, cfg):
    """One Adagrad update of every parameter block from a weighted
    mini-batch. The regularizer's gradient is scaled by the batch's share
    of the sample so one pass applies it exactly once."""
    grads = model.gradient(xb, yb, wb, reg_scale)
    for (param, grad_sq), grad in zip(model.params, grads):
        _adagrad_step(param, grad_sq, grad, cfg.learning_rate,
                      cfg.adagrad_epsilon)


def _make_model(dim, cfg):
    if cfg.model_kind == "logistic":
        return M.LogisticModel.zeros(dim, l2=cfg.l2)
    if cfg.model_kind == "hinge":
        return M.HingeModel.zeros(dim, margin=cfg.hinge_margin, l2=cfg.l2)
    return M.MoEModel.zeros(dim, n_experts=cfg.n_experts, l2=cfg.l2)


def train_label(model, x, y, cfg, label_id):
    """Train one label's model in place. Each iteration draws a fresh
    sampling plan, shuffles the sampled set, and performs mini-batch
    Adagrad updates. Returns the model and the loss trace (initial loss
    plus one entry per iteration)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    trace = []
    for it in range(cfg.iterations):
        plan = build_sampling_plan(label_id, y > 0.5, cfg.sample_cap,
                                   seed=_derive_seed(cfg.seed, label_id, it))
        idx = np.concatenate([plan.pos_indices, plan.neg_indices])
        wts = np.concatenate([np.full(plan.sampled_pos, plan.w_plus),
                              np.full(plan.sampled_neg, plan.w_minus)])
        rng = np.random.default_rng(np.random.SeedSequence(
            [cfg.seed & 0xFFFFFFFF, int(label_id), it, 0x5F]))
        order = rng.permutation(len(idx))
        idx, wts = idx[order], wts[order]
        xs, ys = x[idx], y[idx]

        if it == 0:
            trace.append(model.loss(xs, ys, wts))

        n = len(idx)
        for start in range(0, n, cfg.batch_size):
            stop = min(start + cfg.batch_size, n)
            _batch_update(model, xs[start:stop], ys[start:stop],
                          wts[start:stop], (stop - start) / n, cfg)

        loss = model.loss(xs, ys, wts)
        if not np.isfinite(loss):
            raise TrainingError("non-finite loss for label %d at iteration %d"
                                % (label_id, it))
        trace.append(loss)
    return model, trace


def train_all(vocab, x, y_matrix, cfg):
    """Train one model per label, one label after another. Each label's RNG
    streams are derived from (cfg.seed, label_id) only. Labels without both
    classes are skipped and reported, not fatal."""
    x = np.asarray(x, dtype=np.float64)
    dim = x.shape[1] - 1

    def run(label_id):
        column = y_matrix[:, label_id]
        n_pos = int(np.sum(column > 0.5))
        if n_pos == 0 or n_pos == len(column):
            return LabelResult(label_id, None, [], skipped=True,
                               reason="no %s examples"
                               % ("positive" if n_pos == 0 else "negative"))
        model = _make_model(dim, cfg)
        try:
            model, trace = train_label(model, x, column, cfg, label_id)
        except TrainingError as exc:
            return LabelResult(label_id, None, [], skipped=True,
                               reason=str(exc))
        return LabelResult(label_id, model, trace)

    return {lid: run(lid) for lid, _ in vocab.labels}


def predict_video_frame_level(bank, frames, n_labels):
    """Average-pooled per-label probabilities over a video's frames, one
    per label id below `n_labels`; labels without a model score 0.
    `frames` must already be in the models' feature space, without bias."""
    xb = M.add_bias(frames)
    scores = np.zeros(n_labels)
    for label_id, model in bank.items():
        scores[label_id] = float(np.mean(M.predict(model, xb)))
    return scores


def predict_video_level(bank, descriptor, n_labels):
    """Per-label probabilities from a single aggregated video descriptor,
    one per label id below `n_labels`; labels without a model score 0."""
    xb = M.add_bias(np.asarray(descriptor, dtype=np.float64))
    scores = np.zeros(n_labels)
    for label_id, model in bank.items():
        scores[label_id] = float(M.predict(model, xb))
    return scores
