"""Online per-label training: capped sampling with distribution-preserving
reweighting, Adagrad updates through each model's own loss and gradient
for a block of labels in lockstep, blocks spread over worker threads,
frame-level label assignment, and inference on a whole partition with one
stacked predict, average-pooled over each video's frames at frame level."""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import models as M

DEFAULT_SAMPLE_CAP = 200_000
# train_all's blocks gather at most this many float64 feature values per
# lockstep step (8 MiB): batch size * (D+1) per label
BLOCK_ELEMENTS = 1 << 20
# a lockstep pass gathers the rows of as many steps at once as hold at most
# this many float64 feature values (256 KiB, so that they stay in cache)
SPAN_ELEMENTS = 1 << 15
# loss traces score at most this many float64 values at once: lanes * n
LOSS_ELEMENTS = 1 << 18
# Adagrad divides by sqrt(accumulated squared gradients + this)
ADAGRAD_EPSILON = 1e-6


class TrainingError(Exception):
    pass


@dataclass
class SamplingPlan:
    label_id: int
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
    sample_cap: int = DEFAULT_SAMPLE_CAP
    seed: int = 0
    model_kind: str = "moe"       # logistic | hinge | moe
    n_experts: int = 2
    hinge_margin: float = 1.0

    def __post_init__(self):
        for name in ("learning_rate", "l2", "hinge_margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        for name in ("learning_rate", "batch_size", "iterations",
                     "sample_cap", "n_experts"):
            if getattr(self, name) <= 0:
                raise ValueError("%s must be positive" % name)
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.model_kind not in M.KINDS:
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
    class of a bool mask, with scales w+ = 1/w- = sqrt(Tp*Sn / (Tn*Sp))
    restoring the true positive/negative mass ratio."""
    pos_idx = np.flatnonzero(positives_mask)
    neg_idx = np.flatnonzero(~positives_mask)
    true_pos, true_neg = len(pos_idx), len(neg_idx)
    if true_pos == 0 or true_neg == 0:
        raise TrainingError("label %d has no %s examples"
                            % (label_id, "positive" if true_pos == 0 else "negative"))

    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF,
                                                        int(label_id)]))
    sampled_pos = min(cap, true_pos)
    sampled_neg = min(cap, true_neg)
    # a draw of every row of a class gives back the class's rows sorted, so
    # it is skipped; the positives are drawn whenever the negatives are, so
    # that the negative draw sees the same stream
    pos_sample, neg_sample = pos_idx, neg_idx
    if sampled_pos < true_pos or sampled_neg < true_neg:
        pos_sample = np.sort(rng.choice(pos_idx, sampled_pos, replace=False))
    if sampled_neg < true_neg:
        neg_sample = np.sort(rng.choice(neg_idx, sampled_neg, replace=False))

    w_plus = math.sqrt((true_pos * sampled_neg) / (true_neg * sampled_pos))
    return SamplingPlan(label_id=label_id,
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


def _adagrad_step(weights, grad_sq, grad, lr):
    # weights -= lr * grad / sqrt(grad_sq + epsilon), in place over grad
    denom = grad * grad
    grad_sq += denom
    np.sqrt(np.add(grad_sq, ADAGRAD_EPSILON, out=denom), out=denom)
    weights -= np.divide(np.multiply(lr, grad, out=grad), denom, out=grad)


def _batch_update(model, state, xb, yb, wb, reg_scale, cfg):
    """One Adagrad update of each (param, accumulator) pair of `state`
    for every label, from a weighted mini-batch per label. The regularizer's
    gradient is scaled by the batch's share of the label's sample so one
    pass applies it exactly once."""
    grads = model.gradient(xb, yb, wb, reg_scale)
    for (param, grad_sq), grad in zip(state, grads):
        _adagrad_step(param, grad_sq, grad, cfg.learning_rate)


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
    plan = build_sampling_plan(label_id, y, cfg.sample_cap,
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
    of positive and negative rows; `losses` scores every label on them."""
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
            targets[lane, :len(idx)] = y[idx, label_id]
        return cls(order, targets, sizes,
                   np.array([[w] for _, w, _ in samples]),
                   np.array([[w] for _, _, w in samples]))

    def losses(self, model, x, y, label_ids):
        """(Lb,) trace entries: lane k's `loss` over every row of x in
        partition order, a row weighing w+ or w- in the sample and 0
        outside it (so a non-finite score outside it still makes the entry
        non-finite), with targets y[:, label_ids[k]]. Chunks of
        LOSS_ELEMENTS // n lanes are scored at once, as views of `model`."""
        n, step = len(x), max(1, LOSS_ELEMENTS // len(x))
        losses = []
        for lo in range(0, len(self.sizes), step):
            part = slice(lo, lo + step)
            wts = np.where(self.targets[part], self.w_plus[part],
                           self.w_minus[part])
            wts[np.arange(wts.shape[1]) >= self.sizes[part, None]] = 0.0
            # lane k's sample holds a row once, so cell (k, row) sums its
            # weight alone; the padding adds 0 to row 0
            cells = self.order[part] + n * np.arange(len(wts))[:, None]
            wts = np.bincount(cells.ravel(), wts.ravel(), len(wts) * n)
            chunk = replace(model, **{name: getattr(model, name)[part]
                                      for name in model.ARRAYS})
            losses.append(chunk.loss(x, y[:, label_ids[part]].T,
                                     wts.reshape(-1, n)))
        return np.concatenate(losses)


def _lockstep_pass(model, state, x, sample, cfg):
    """One pass of every label of the block over its sample. Step t updates
    every label at once with rows [tB, (t+1)B) of its own order, for as
    many steps as a label has full batches; a label that has run out takes
    a step with zero weights and zero reg_scale, which leaves its
    parameters unchanged. A label whose sample ends in a partial batch of
    r rows takes it after the full batches, in one step with the labels
    whose partial batch also has r rows (a batch padded with zero-weight
    rows would sum in another order).

    The rows, targets and weights of as many full-batch steps as hold at
    most SPAN_ELEMENTS feature values are gathered at once, and those of
    each partial-batch step alone; each step takes views of them."""
    batch, sizes = cfg.batch_size, sample.sizes
    full = sizes // batch
    tails = sizes - full * batch
    widths = np.unique(tails[tails > 0])
    n_full = int(full.max())
    # (steps, labels): whether the label takes part in the step
    live = np.concatenate([np.arange(n_full)[:, None] < full,
                           tails == widths[:, None]])
    reg_scales = np.where(live, np.concatenate(
        [np.full(n_full, batch), widths])[:, None] / sizes, 0.0)
    span = max(1, SPAN_ELEMENTS // (len(sizes) * batch * x.shape[1]))
    spans = [(lo, min(lo + span, n_full)) for lo in range(0, n_full, span)]
    columns = [(slice(None), slice(lo * batch, hi * batch))
               for lo, hi in spans]
    lanes = np.arange(len(sizes))[:, None]
    for t, width in enumerate(widths.tolist(), n_full):
        # a label sitting out a partial-batch step reads from position 0
        spans.append((t, t + 1))
        columns.append((lanes, np.where(live[t], full * batch, 0)[:, None]
                        + np.arange(width)))
    for (lo, hi), cols in zip(spans, columns):
        xs, ys = x[sample.order[cols]], sample.targets[cols]
        ws = np.where(ys, sample.w_plus, sample.w_minus)
        if not live[lo:hi].all():   # the steps of a span share one width
            ws[~np.repeat(live[lo:hi].T, ys.shape[1] // (hi - lo), 1)] = 0.0
        for t in range(lo, hi):
            cut = slice((t - lo) * batch, (t - lo + 1) * batch)
            _batch_update(model, state, xs[:, cut], ys[:, cut], ws[:, cut],
                          reg_scales[t], cfg)
        del xs   # before the next gather, which would map fresh pages


def train_label(model, x, y, cfg, label_ids):
    """Train a block of labels in place, in lockstep: `model` stacks one
    label per id of `label_ids`, and column `label_id` of the (n, .) bool
    matrix `y` holds that label's targets.

    Each iteration draws every label's own sampling plan and shuffle, as if
    it were trained alone, and makes one lockstep pass over them. So every
    label gets exactly the updates of a run on its own, and labels never
    mix: each label's result is the same bit for bit whatever block it is
    trained in. The Adagrad accumulators start at zero and last for this
    call only.

    Returns the model and one loss trace per label: the initial loss plus
    one entry per iteration, each over every row of x with weight 0 off
    the label's sample (see _BlockSample.losses), the same bits in any
    block. A trace is not extended past a non-finite entry: that label
    diverged at that iteration."""
    x = np.asarray(x, dtype=np.float64)
    traces = [[] for _ in label_ids]
    state = [(param, np.zeros_like(param)) for param in model.params]

    def record_losses(sample):
        losses = sample.losses(model, x, y, label_ids).tolist()
        for trace, loss in zip(traces, losses):
            if np.all(np.isfinite(trace[1:])):
                trace.append(loss)

    for it in range(cfg.iterations):
        sample = _BlockSample.draw(label_ids, y, cfg, it)
        if it == 0:
            record_losses(sample)
        _lockstep_pass(model, state, x, sample, cfg)
        record_losses(sample)
    return model, traces


def train_all(x, y_matrix, cfg, workers=1):
    """Train one model per column of the bool (n, L) y_matrix, returning
    {label id: LabelResult} in id order. Labels with both classes are split
    into contiguous, near-equal blocks of at most BLOCK_ELEMENTS // (batch
    size * (D+1)) labels, each trained in lockstep (see train_label); when
    there is more than one block, their count is rounded up to a multiple
    of `workers`, and the blocks run on that many threads. Each label's RNG
    streams are derived from (cfg.seed, label_id) only, so its model does
    not depend on the block or on `workers`. Labels without both classes,
    or whose loss diverges, are skipped and reported, not fatal."""
    x = np.asarray(x, dtype=np.float64)
    dim = x.shape[1] - 1
    n_pos = np.count_nonzero(y_matrix, axis=0).tolist()
    results = {label_id: LabelResult(label_id, None, [], skipped=True,
                                     reason="no %s examples"
                                     % ("positive" if n == 0 else "negative"))
               for label_id, n in enumerate(n_pos) if n in (0, len(y_matrix))}
    trainable = [label_id for label_id in range(len(n_pos))
                 if label_id not in results]

    block_max = max(1, BLOCK_ELEMENTS // (cfg.batch_size * (dim + 1)))
    n_blocks = math.ceil(len(trainable) / block_max)
    if n_blocks > 1:
        n_blocks = min(len(trainable), math.ceil(n_blocks / workers) * workers)
    blocks = ([b.tolist() for b in np.array_split(trainable, n_blocks)]
              if trainable else [])

    def train_block(label_ids):
        return train_label(_make_model(dim, len(label_ids), cfg), x, y_matrix,
                           cfg, label_ids)

    threads = min(workers, len(blocks))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(threads) as pool:
            trained = list(pool.map(train_block, blocks))
    else:
        trained = map(train_block, blocks)
    for label_ids, (model, traces) in zip(blocks, trained):
        for lane, (label_id, trace) in enumerate(zip(label_ids, traces)):
            if np.all(np.isfinite(trace[1:])):
                results[label_id] = LabelResult(label_id, model.label(lane),
                                                trace)
            else:
                results[label_id] = LabelResult(
                    label_id, None, [], skipped=True,
                    reason="non-finite loss for label %d at iteration %d"
                    % (label_id, len(trace) - 2))
    return dict(sorted(results.items()))


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
