"""Online per-label training: capped sampling with distribution-preserving
reweighting, Adagrad updates through each model's own loss and gradient
for a block of labels in lockstep, frame-level label assignment, and
inference on a whole partition with one stacked predict, average-pooled
over each video's frames at frame level."""

import math
from dataclasses import dataclass

import numpy as np

from . import models as M

DEFAULT_SAMPLE_CAP = 200_000
# train_all's blocks gather at most this many float64 feature values per
# lockstep step (8 MiB): batch size * (D+1) per label
BLOCK_ELEMENTS = 1 << 20


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
    """One Adagrad update of every parameter block of every label from a
    weighted mini-batch per label. The regularizer's gradient is scaled by
    the batch's share of the label's sample so one pass applies it exactly
    once."""
    grads = model.gradient(xb, yb, wb, reg_scale)
    for (param, grad_sq), grad in zip(model.params, grads):
        _adagrad_step(param, grad_sq, grad, cfg.learning_rate,
                      cfg.adagrad_epsilon)


def _make_model(dim, n_labels, cfg):
    if cfg.model_kind == "logistic":
        return M.LogisticModel.zeros(dim, l2=cfg.l2, n_labels=n_labels)
    if cfg.model_kind == "hinge":
        return M.HingeModel.zeros(dim, margin=cfg.hinge_margin, l2=cfg.l2,
                                  n_labels=n_labels)
    return M.MoEModel.zeros(dim, n_experts=cfg.n_experts, l2=cfg.l2,
                            n_labels=n_labels)


def _label_sample(label_id, y, cfg, it):
    """One label's sample for iteration `it` in its training order: the
    row indices and the w+/w- scales of the label's sampling plan."""
    plan = build_sampling_plan(label_id, y > 0.5, cfg.sample_cap,
                               seed=_derive_seed(cfg.seed, label_id, it))
    idx = np.concatenate([plan.pos_indices, plan.neg_indices])
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed & 0xFFFFFFFF, int(label_id), it, 0x5F]))
    return idx[rng.permutation(len(idx))], plan.w_plus, plan.w_minus


@dataclass
class _BlockSample:
    """Every label's sample of one iteration: label k trains on rows
    order[k, :sizes[k]] in that order, whose targets (positive or not) are
    targets[k, :sizes[k]]; both are padded (with row 0) up to the longest
    sample. w_plus and w_minus are (Lb, 1) columns of the plans' weights
    of positive and negative rows."""
    order: np.ndarray
    targets: np.ndarray
    sizes: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray

    @classmethod
    def draw(cls, label_ids, y, cfg, it):
        samples = [_label_sample(label_id, y[:, label_id], cfg, it)
                   for label_id in label_ids]
        sizes = np.array([len(idx) for idx, _, _ in samples])
        order = np.zeros((len(samples), sizes.max()), dtype=np.intp)
        targets = np.zeros(order.shape, dtype=bool)
        for lane, (label_id, (idx, _, _)) in enumerate(zip(label_ids,
                                                           samples)):
            order[lane, :len(idx)] = idx
            targets[lane, :len(idx)] = y[idx, label_id] > 0.5
        return cls(order, targets, sizes,
                   np.array([[w] for _, w, _ in samples]),
                   np.array([[w] for _, _, w in samples]))

    def loss(self, model, x, lane):
        """Label `lane`'s loss on its whole sample, in training order."""
        size = self.sizes[lane]
        rows, ys = self.order[lane, :size], self.targets[lane, :size]
        wts = np.where(ys, self.w_plus[lane], self.w_minus[lane])
        return float(model.label(lane).loss(x[rows][None], ys[None],
                                            wts[None])[0])


def _lockstep_pass(model, x, sample, cfg):
    """One pass of every label of the block over its sample. Step t updates
    every label at once with rows [tB, (t+1)B) of its own order, for as
    many steps as a label has full batches; a label that has run out takes
    a step with zero weights and zero reg_scale, which leaves its
    parameters unchanged. A label whose sample ends in a partial batch of
    r rows takes it after the full batches, in one step with the labels
    whose partial batch also has r rows (a batch padded with zero-weight
    rows would sum in another order)."""
    batch = cfg.batch_size

    def step(cols, reg_scale, active=None):
        rows, yb = sample.order[cols], sample.targets[cols]
        wb = np.where(yb, sample.w_plus, sample.w_minus)
        if active is not None:
            wb[~active] = 0.0
            reg_scale = np.where(active, reg_scale, 0.0)
        _batch_update(model, x[rows], yb, wb, reg_scale, cfg)

    sizes = sample.sizes
    full = sizes // batch
    scale, shortest = batch / sizes, full.min()
    for t in range(full.max()):
        step((slice(None), slice(t * batch, (t + 1) * batch)), scale,
             None if t < shortest else t < full)
    tails = sizes - full * batch
    lanes = np.arange(len(sizes))[:, None]
    for width in np.unique(tails[tails > 0]).tolist():
        active = tails == width
        start = np.where(active, full * batch, 0)[:, None]
        step((lanes, start + np.arange(width)), width / sizes, active)


def train_label(model, x, y, cfg, label_ids):
    """Train a block of labels in place, in lockstep: `model` stacks one
    label per id of `label_ids`, and column `label_id` of the (n, .) matrix
    `y` holds that label's targets.

    Each iteration draws every label's own sampling plan and shuffle, as if
    it were trained alone, and makes one lockstep pass over them. So every
    label gets exactly the updates of a run on its own, and labels never
    mix: each label's result is the same bit for bit whatever block it is
    trained in.

    Returns the model and one loss trace per label: the initial loss plus
    one entry per iteration. A trace is not extended past a non-finite
    entry: that label diverged at that iteration."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    traces = [[] for _ in label_ids]

    def record_losses(sample):
        for lane, trace in enumerate(traces):
            if np.all(np.isfinite(trace[1:])):
                trace.append(sample.loss(model, x, lane))

    for it in range(cfg.iterations):
        sample = _BlockSample.draw(label_ids, y, cfg, it)
        if it == 0:
            record_losses(sample)
        _lockstep_pass(model, x, sample, cfg)
        record_losses(sample)
    return model, traces


def train_all(vocab, x, y_matrix, cfg):
    """Train one model per label. Labels with both classes are trained in
    blocks of at most BLOCK_ELEMENTS // (batch size * (D+1)) labels, each
    block in lockstep (see train_label); each label's RNG streams are
    derived from (cfg.seed, label_id) only, so its model does not depend on
    the block. Labels without both classes, or whose loss diverges, are
    skipped and reported, not fatal."""
    x = np.asarray(x, dtype=np.float64)
    dim = x.shape[1] - 1
    results, trainable = {}, []
    for label_id, _ in vocab.labels:
        n_pos = int(np.sum(y_matrix[:, label_id] > 0.5))
        if n_pos == 0 or n_pos == len(y_matrix):
            results[label_id] = LabelResult(
                label_id, None, [], skipped=True, reason="no %s examples"
                % ("positive" if n_pos == 0 else "negative"))
        else:
            trainable.append(label_id)

    block = max(1, BLOCK_ELEMENTS // (cfg.batch_size * (dim + 1)))
    for start in range(0, len(trainable), block):
        label_ids = trainable[start:start + block]
        model, traces = train_label(_make_model(dim, len(label_ids), cfg),
                                    x, y_matrix, cfg, label_ids)
        for lane, (label_id, trace) in enumerate(zip(label_ids, traces)):
            if np.all(np.isfinite(trace[1:])):
                results[label_id] = LabelResult(label_id, model.label(lane),
                                                trace)
            else:
                results[label_id] = LabelResult(
                    label_id, None, [], skipped=True,
                    reason="non-finite loss for label %d at iteration %d"
                    % (label_id, len(trace) - 2))
    return {label_id: results[label_id] for label_id, _ in vocab.labels}


@dataclass
class LabelBank:
    """A trained bank as one stacked model: label `label_ids[k]` is label k
    of `model`."""
    model: object
    label_ids: np.ndarray

    def scores(self, x, n_labels):
        """(N, n_labels) scores of the rows of x, with bias; labels without
        a model score 0."""
        scores = np.zeros((len(x), n_labels))
        scores[:, self.label_ids] = M.predict(self.model, x)
        return scores


def predict_video_frame_level(bank, frames, offsets, n_labels):
    """Average-pooled per-label probabilities over each video's frames: the
    (V, n_labels) scores of a partition whose video i is
    frames[offsets[i]:offsets[i+1]]. `frames` must already be in the
    models' feature space, without bias."""
    if len(offsets) < 2:
        return np.zeros((0, n_labels))
    sums = np.add.reduceat(bank.scores(M.add_bias(frames), n_labels),
                           offsets[:-1], axis=0)
    return sums / np.diff(offsets)[:, None]


def predict_video_level(bank, descriptors, n_labels):
    """(V, n_labels) per-label probabilities of a (V, d) matrix of video
    descriptors; labels without a model score 0."""
    return bank.scores(M.add_bias(descriptors), n_labels)
