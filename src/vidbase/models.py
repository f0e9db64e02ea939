"""Per-label binary classifiers: logistic regression, online hinge (SVM),
and Mixture of Experts, with their losses, exact gradients and
serialization.

Every model is a stack of L labels: each of its arrays carries a leading
label axis, (L, D+1) for logistic and hinge weights and (L, H, D+1) for
the MoE gating and expert weights. A single label is L = 1. Labels never
interact: every product over the label axis is one `np.matmul`, which
computes each label's slice with the same BLAS call as a single-label
product, so a stacked result equals the L single-label ones bit for bit.

All feature vectors are (D+1)-dimensional with a constant-1 last coordinate
acting as the bias feature. The bias coordinate is excluded from L2
regularization.

Each model has one `loss(X, y, w)`: for X of shape (L, n, D+1) and y, w
of shape (L, n), the (L,) vector of sum_i w_i l(x_i, y_i) plus
l2 ||W[..., :-1]||^2 per label (one example is a batch of one). It has one
`gradient(X, y, w, reg_scale)`, the exact derivative of each label's loss
with its L2 term scaled by that label's `reg_scale` (a mini-batch's share
of the sample). `params` are the parameter blocks, in the order
`gradient` returns them. The predict functions score one (N, D+1) matrix
shared by every label and return one column per label, (N, L).
"""

from dataclasses import dataclass, replace

import numpy as np

from .io import DataFormatError

PROB_CLAMP = 1e-12
DEFAULT_L2 = 1e-6


def add_bias(x):
    """Append the constant-1 bias feature to a vector, an (N, D) matrix or
    a stack of them on leading axes."""
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def expit(z):
    """The sigmoid 1 / (1 + e^-z) of an array, with -z capped at 709 so that
    exp never overflows (capped results are below 1.3e-308)."""
    e = np.negative(z)
    np.minimum(e, 709.0, out=e)
    np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


def _clamp(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def log_loss(p, g):
    p = _clamp(np.asarray(p, dtype=np.float64))
    return -(g * np.log(p) + (1.0 - g) * np.log(1.0 - p))


def _scores(x, weights):
    """(L, n) products x_i . w_l: `x` is one (n, D+1) matrix shared by the
    labels or (L, n, D+1), one matrix per label; `weights` is (L, D+1)."""
    return np.matmul(x, weights[:, :, None])[..., 0]


def _expert_scores(x, weights):
    """(L, n, H) products x_i . w_lh for `weights` of shape (L, H, D+1)."""
    return np.matmul(x, weights.transpose(0, 2, 1))


def _weighted_sum(w, v):
    """(L,) sums sum_i w_li v_li of two (L, n) arrays."""
    return np.matmul(w[:, None, :], v[:, :, None])[:, 0, 0]


class _LabelStack:
    """The parameter blocks named in ARRAYS carry the leading label axis."""

    ARRAYS = ()

    @property
    def params(self):
        return tuple(getattr(self, name) for name in self.ARRAYS)

    @property
    def n_labels(self):
        return getattr(self, self.ARRAYS[0]).shape[0]

    def label(self, i):
        """Label i of the stack as an L = 1 model with its own arrays."""
        return replace(self, **{name: getattr(self, name)[i:i + 1].copy()
                                for name in self.ARRAYS})


def _stacked(arr, ndim, what):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[0] < 1:
        raise ValueError("%s must have %d axes, the first over labels"
                         % (what, ndim))
    return arr


@dataclass
class LogisticModel(_LabelStack):
    weights: np.ndarray          # (L, D+1)
    l2: float = DEFAULT_L2

    ARRAYS = ("weights",)
    SETTINGS = ("l2",)
    kind = "logistic"

    def __post_init__(self):
        self.weights = _stacked(self.weights, 2, "logistic weights")

    @classmethod
    def zeros(cls, dim, l2=DEFAULT_L2, n_labels=1):
        return cls(weights=np.zeros((n_labels, dim + 1)), l2=l2)

    def loss(self, x, y, w):
        """Log loss of sigmoid(z), z = x . w, written as log(1 + e^z) - y z so
        that it is exact for any z."""
        z = _scores(x, self.weights)
        return _weighted_sum(w, np.logaddexp(0.0, z) - y * z) + _l2_penalty(self)

    def gradient(self, x, y, w, reg_scale=1.0):
        """(sigmoid(z) - y) x per row: exact for any z, so the probability
        clamp of logistic_predict is not applied here."""
        r = (expit(_scores(x, self.weights)) - y) * w
        grad = np.matmul(r[:, None, :], x)[:, 0]
        return (_add_l2(grad, self.weights, 2.0 * self.l2 * reg_scale),)


@dataclass
class HingeModel(_LabelStack):
    weights: np.ndarray          # (L, D+1)
    margin: float = 1.0
    l2: float = DEFAULT_L2

    ARRAYS = ("weights",)
    SETTINGS = ("l2", "margin")
    kind = "hinge"

    def __post_init__(self):
        self.weights = _stacked(self.weights, 2, "hinge weights")
        if not self.margin > 0:  # NaN included
            raise ValueError("hinge margin must be positive")

    @classmethod
    def zeros(cls, dim, margin=1.0, l2=DEFAULT_L2, n_labels=1):
        return cls(weights=np.zeros((n_labels, dim + 1)), margin=margin,
                   l2=l2)

    def loss(self, x, y, w):
        """max(0, b - s w.x) per row, with s = 2y - 1."""
        slack = self.margin - (2.0 * y - 1.0) * _scores(x, self.weights)
        return _weighted_sum(w, np.maximum(slack, 0.0)) + _l2_penalty(self)

    def gradient(self, x, y, w, reg_scale=1.0):
        """Subgradient of `loss`; the zero side is taken at the kink."""
        s = 2.0 * y - 1.0
        active = self.margin - s * _scores(x, self.weights) > 0.0
        grad = -np.matmul((s * w * active)[:, None, :], x)[:, 0]
        return (_add_l2(grad, self.weights, 2.0 * self.l2 * reg_scale),)


@dataclass
class MoEModel(_LabelStack):
    """Softmax gating over H experts plus an implicit dummy state whose
    gating weights are zero; each expert is a logistic model."""

    gating: np.ndarray            # (L, H, D+1)
    experts: np.ndarray           # (L, H, D+1)
    l2: float = DEFAULT_L2

    ARRAYS = ("gating", "experts")
    SETTINGS = ("l2",)
    kind = "moe"

    def __post_init__(self):
        self.gating = _stacked(self.gating, 3, "MoE gating weights")
        self.experts = _stacked(self.experts, 3, "MoE expert weights")
        if self.gating.shape != self.experts.shape:
            raise ValueError("gating and expert weights must share shape "
                             "(L, H, D+1)")
        if self.gating.shape[1] < 1:
            raise ValueError("need at least one expert")

    @classmethod
    def zeros(cls, dim, n_experts=2, l2=DEFAULT_L2, n_labels=1):
        shape = (n_labels, n_experts, dim + 1)
        return cls(gating=np.zeros(shape), experts=np.zeros(shape), l2=l2)

    def loss(self, x, y, w):
        return (_weighted_sum(w, log_loss(_moe_probability(self, x), y))
                + _l2_penalty(self))

    def gradient(self, x, y, w, reg_scale=1.0):
        return moe_gradients_batch(self, x, y, w, reg_scale)


def _l2_penalty(model):
    """(L,) l2 * ||W[..., :-1]||^2 per label over every parameter block
    (bias excluded)."""
    return model.l2 * sum(np.sum(param[..., :-1] ** 2,
                                 axis=tuple(range(1, param.ndim)))
                          for param in model.params)


def _add_l2(grad, param, coef):
    """grad += coef * param with the bias coordinate left out; `coef` is one
    number or one per label. The transposed product is kept because the
    slice form `grad[:, :-1] += coef[:, None] * param[:, :-1]` made batch-1
    frame-level training 7-9% slower (one BLAS thread) for the same bank."""
    reg = (coef * param.T).T   # the label axis last, so that coef broadcasts
    reg[..., -1] = 0.0
    grad += reg
    return grad


def logistic_predict(model, x):
    # clamped so extreme scores never underflow to an exact 0 or 1
    return _clamp(expit(_scores(x, model.weights))).T


def hinge_predict(model, x):
    """Raw margin scores w.x (not probabilities), (N, L)."""
    return _scores(x, model.weights).T


def _gate_log_normalizer(act):
    """log(1 + sum_h e^a_h) per row of the (..., H) gating activations: the
    log-sum-exp over the experts and the dummy state's implicit zero,
    shifted by m = max(0, max_h a_h) so that no exponent is positive."""
    m = np.maximum(act.max(axis=-1, keepdims=True), 0.0)
    return m + np.log(np.exp(-m) + np.exp(act - m).sum(axis=-1, keepdims=True))


def moe_gating(model, x):
    """Gating probabilities over the H experts (the dummy state takes the
    remaining mass), (L, n, H) for a shared (n, D+1) matrix or one
    (L, n, D+1) matrix per label."""
    act = _expert_scores(x, model.gating)
    return np.exp(act - _gate_log_normalizer(act))


def _moe_probability(model, x):
    """(L, n) p(y=1 | x) = sum_h p(h | x) * sigmoid(u_h . x); always < 1
    because the dummy state reserves probability mass."""
    return np.sum(moe_gating(model, x)
                  * expit(_expert_scores(x, model.experts)), axis=-1)


def moe_predict(model, x):
    return _moe_probability(model, x).T


def moe_gradients_batch(model, x, y, w, reg_scale=1.0):
    """Gradients of MoEModel.loss w.r.t. the gating and expert weights."""
    gate = moe_gating(model, x)                             # (L, n, H)
    p_expert = expit(_expert_scores(x, model.experts))      # (L, n, H)
    p = _clamp(np.sum(gate * p_expert, axis=-1))            # (L, n)
    common = (w * (p - y) / (p * (1.0 - p)))[..., None]
    coef = 2.0 * model.l2 * reg_scale
    d_gating = np.matmul((gate * (p_expert - p[..., None]) * common)
                         .transpose(0, 2, 1), x)
    d_expert = np.matmul((gate * p_expert * (1.0 - p_expert) * common)
                         .transpose(0, 2, 1), x)
    return (_add_l2(d_gating, model.gating, coef),
            _add_l2(d_expert, model.experts, coef))


def predict(model, x):
    """(N, L) probability-like scores of the rows of x for every label
    (hinge scores are mapped through a sigmoid so they can be ranked on the
    same [0, 1] scale)."""
    if model.kind == "logistic":
        return logistic_predict(model, x)
    if model.kind == "moe":
        return moe_predict(model, x)
    return expit(hinge_predict(model, x))


def stack_models(models):
    """One model holding the labels of `models`, of one kind and shape, in
    order."""
    first = models[0]
    return replace(first, **{
        name: np.concatenate([getattr(model, name) for model in models])
        for name in first.ARRAYS})


# each model class by its kind, the --model name
KINDS = {cls.kind: cls for cls in (LogisticModel, HingeModel, MoEModel)}


def serialize_model(model):
    """A model as a bank container stores it: its float64 arrays, label
    axis first, and its settings (kind, l2 and the hinge margin)."""
    settings = {name: getattr(model, name) for name in model.SETTINGS}
    settings["kind"] = model.kind
    return {name: getattr(model, name) for name in model.ARRAYS}, settings


def deserialize_model(arrays, settings):
    """The model that serialize_model gave `arrays` and `settings` for;
    `arrays` may hold other arrays too."""
    try:
        cls = KINDS[settings["kind"]]
        return cls(**{name: arrays[name] for name in cls.ARRAYS},
                   **{name: settings[name] for name in cls.SETTINGS})
    except (KeyError, TypeError) as exc:
        raise DataFormatError("a model needs its kind, settings and arrays; "
                              "missing or invalid: %s" % exc) from exc
