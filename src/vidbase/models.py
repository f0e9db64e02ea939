"""Per-label binary classifiers: logistic regression, online hinge (SVM),
and Mixture of Experts, with their losses, exact gradients and
serialization.

All feature vectors are (D+1)-dimensional with a constant-1 last coordinate
acting as the bias feature. The bias coordinate is excluded from L2
regularization. Models carry their Adagrad accumulators so training is
resumable after serialization.

Each model has one `loss(X, y, w)`, sum_i w_i l(x_i, y_i) plus
l2 ||W[..., :-1]||^2 over a batch (one example is a batch of one), and one
`gradient`, its exact derivative with the L2 term scaled by `reg_scale` (a
mini-batch's share of the sample). `params` pairs each parameter block with
its Adagrad accumulator, in the order `gradient` returns the blocks.
"""

import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

MODEL_MAGIC = b"YT8MMDL0"
MODEL_VERSION = 1

KIND_LOGISTIC = 1
KIND_HINGE = 2
KIND_MOE = 3

PROB_CLAMP = 1e-12
DEFAULT_L2 = 1e-6


class ModelFormatError(Exception):
    pass


def add_bias(x):
    """Append the constant-1 bias feature to a vector or (N, D) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return np.concatenate([x, [1.0]])
    return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)


def _clamp(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def log_loss(p, g):
    p = _clamp(np.asarray(p, dtype=np.float64))
    return -(g * np.log(p) + (1.0 - g) * np.log(1.0 - p))


@dataclass
class LogisticModel:
    weights: np.ndarray          # (D+1,)
    l2: float = DEFAULT_L2
    grad_sq: np.ndarray = None   # Adagrad accumulator, same shape

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.grad_sq is None:
            self.grad_sq = np.zeros_like(self.weights)

    @classmethod
    def zeros(cls, dim, l2=DEFAULT_L2):
        return cls(weights=np.zeros(dim + 1), l2=l2)

    @property
    def kind(self):
        return KIND_LOGISTIC

    @property
    def params(self):
        return ((self.weights, self.grad_sq),)

    def loss(self, x, y, w):
        """Log loss of sigmoid(z), z = X w, written as log(1 + e^z) - y z so
        that it is exact for any z."""
        z = x @ self.weights
        return float(w @ (np.logaddexp(0.0, z) - y * z)) + _l2_penalty(self)

    def gradient(self, x, y, w, reg_scale=1.0):
        """(sigmoid(z) - y) x per row: exact for any z, so the probability
        clamp of logistic_predict is not applied here."""
        grad = ((expit(x @ self.weights) - y) * w) @ x
        return (_add_l2(grad, self.weights, 2.0 * self.l2 * reg_scale),)


@dataclass
class HingeModel:
    weights: np.ndarray
    margin: float = 1.0
    l2: float = DEFAULT_L2
    grad_sq: np.ndarray = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.margin <= 0:
            raise ValueError("hinge margin must be positive")
        if self.grad_sq is None:
            self.grad_sq = np.zeros_like(self.weights)

    @classmethod
    def zeros(cls, dim, margin=1.0, l2=DEFAULT_L2):
        return cls(weights=np.zeros(dim + 1), margin=margin, l2=l2)

    @property
    def kind(self):
        return KIND_HINGE

    @property
    def params(self):
        return ((self.weights, self.grad_sq),)

    def loss(self, x, y, w):
        """max(0, b - s w.x) per row, with s = 2y - 1."""
        slack = self.margin - (2.0 * y - 1.0) * (x @ self.weights)
        return float(w @ np.maximum(slack, 0.0)) + _l2_penalty(self)

    def gradient(self, x, y, w, reg_scale=1.0):
        """Subgradient of `loss`; the zero side is taken at the kink."""
        s = 2.0 * y - 1.0
        active = self.margin - s * (x @ self.weights) > 0.0
        grad = -((s * w * active) @ x)
        return (_add_l2(grad, self.weights, 2.0 * self.l2 * reg_scale),)


@dataclass
class MoEModel:
    """Softmax gating over H experts plus an implicit dummy state whose
    gating weights are zero; each expert is a logistic model."""

    gating: np.ndarray            # (H, D+1)
    experts: np.ndarray           # (H, D+1)
    l2: float = DEFAULT_L2
    gating_grad_sq: np.ndarray = None
    expert_grad_sq: np.ndarray = None

    def __post_init__(self):
        self.gating = np.asarray(self.gating, dtype=np.float64)
        self.experts = np.asarray(self.experts, dtype=np.float64)
        if self.gating.shape != self.experts.shape or self.gating.ndim != 2:
            raise ValueError("gating and expert weights must share shape (H, D+1)")
        if self.gating.shape[0] < 1:
            raise ValueError("need at least one expert")
        if self.gating_grad_sq is None:
            self.gating_grad_sq = np.zeros_like(self.gating)
        if self.expert_grad_sq is None:
            self.expert_grad_sq = np.zeros_like(self.experts)

    @classmethod
    def zeros(cls, dim, n_experts=2, l2=DEFAULT_L2):
        return cls(gating=np.zeros((n_experts, dim + 1)),
                   experts=np.zeros((n_experts, dim + 1)), l2=l2)

    @property
    def kind(self):
        return KIND_MOE

    @property
    def params(self):
        return ((self.gating, self.gating_grad_sq),
                (self.experts, self.expert_grad_sq))

    def loss(self, x, y, w):
        return float(w @ log_loss(moe_predict(self, x), y)) + _l2_penalty(self)

    def gradient(self, x, y, w, reg_scale=1.0):
        return moe_gradients_batch(self, x, y, w, reg_scale)


def _l2_penalty(model):
    """l2 * ||W[..., :-1]||^2 over every parameter block (bias excluded)."""
    return model.l2 * sum(float(np.sum(param[..., :-1] ** 2))
                          for param, _ in model.params)


def _add_l2(grad, param, coef):
    """grad += coef * param with the bias coordinate left out."""
    reg = coef * param
    reg[..., -1] = 0.0
    grad += reg
    return grad


def logistic_predict(model, x):
    x = np.asarray(x, dtype=np.float64)
    # clamped so extreme scores never underflow to an exact 0 or 1
    return _clamp(expit(x @ model.weights))


def hinge_predict(model, x):
    """Raw margin score w.x (not a probability)."""
    x = np.asarray(x, dtype=np.float64)
    return x @ model.weights


def _gate_log_normalizer(act):
    """log(1 + sum_h e^a_h) per row of the (N, H) gating activations: the
    log-sum-exp over the experts and the dummy state's implicit zero,
    shifted by m = max(0, max_h a_h) so that no exponent is positive."""
    m = np.maximum(act.max(axis=1, keepdims=True), 0.0)
    return m + np.log(np.exp(-m) + np.exp(act - m).sum(axis=1, keepdims=True))


def moe_gating(model, x):
    """Gating probabilities over the H experts (the dummy state takes the
    remaining mass); works on a vector or (N, D+1) matrix."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    act = np.atleast_2d(x) @ model.gating.T                # (N, H)
    gate = np.exp(act - _gate_log_normalizer(act))
    return gate[0] if single else gate


def moe_predict(model, x):
    """p(y=1 | x) = sum_h p(h | x) * sigmoid(u_h . x); always < 1 because
    the dummy state reserves probability mass."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    batch = np.atleast_2d(x)
    gate = np.atleast_2d(moe_gating(model, batch))
    p_expert = expit(batch @ model.experts.T)
    p = np.sum(gate * p_expert, axis=1)
    return p[0] if single else p


def moe_gradients_batch(model, x, y, w, reg_scale=1.0):
    """Gradients of MoEModel.loss w.r.t. the gating and expert weights."""
    gate = moe_gating(model, x)                             # (N, H)
    p_expert = expit(x @ model.experts.T)                   # (N, H)
    p = _clamp(np.sum(gate * p_expert, axis=1))             # (N,)
    common = (w * (p - y) / (p * (1.0 - p)))[:, None]
    coef = 2.0 * model.l2 * reg_scale
    d_gating = (gate * (p_expert - p[:, None]) * common).T @ x
    d_expert = (gate * p_expert * (1.0 - p_expert) * common).T @ x
    return (_add_l2(d_gating, model.gating, coef),
            _add_l2(d_expert, model.experts, coef))


def predict(model, x):
    """Probability-like score for any model kind (hinge scores are mapped
    through a sigmoid so they can be ranked on the same [0, 1] scale)."""
    if model.kind == KIND_LOGISTIC:
        return logistic_predict(model, x)
    if model.kind == KIND_MOE:
        return moe_predict(model, x)
    return expit(hinge_predict(model, x))


def serialize_model(model):
    head = MODEL_MAGIC + struct.pack("<IB", MODEL_VERSION, model.kind)
    if model.kind == KIND_MOE:
        n_experts, dim1 = model.gating.shape
        body = struct.pack("<IId", dim1 - 1, n_experts, model.l2)
        arrays = (model.gating, model.experts,
                  model.gating_grad_sq, model.expert_grad_sq)
    else:
        body = struct.pack("<IId", model.weights.shape[0] - 1, 0, model.l2)
        if model.kind == KIND_HINGE:
            body += struct.pack("<d", model.margin)
        arrays = (model.weights, model.grad_sq)
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes()
                       for a in arrays)
    return head + body + payload


def deserialize_model(blob):
    if blob[:8] != MODEL_MAGIC:
        raise ModelFormatError("bad magic")
    try:
        version, kind = struct.unpack_from("<IB", blob, 8)
        if version != MODEL_VERSION:
            raise ModelFormatError("unsupported model version %d" % version)
        off = 13
        dim, n_experts, l2 = struct.unpack_from("<IId", blob, off)
        off += 16

        def take(shape):
            nonlocal off
            count = int(np.prod(shape))
            end = off + 8 * count
            if end > len(blob):
                raise ModelFormatError("truncated model payload")
            arr = np.frombuffer(blob, dtype="<f8", count=count,
                                offset=off).reshape(shape).copy()
            off = end
            return arr

        if kind == KIND_MOE:
            if n_experts < 1:
                raise ModelFormatError("MoE model requires H >= 1")
            shape = (n_experts, dim + 1)
            model = MoEModel(gating=take(shape), experts=take(shape), l2=l2,
                             gating_grad_sq=take(shape),
                             expert_grad_sq=take(shape))
        elif kind == KIND_HINGE:
            (margin,) = struct.unpack_from("<d", blob, off)
            off += 8
            model = HingeModel(weights=take((dim + 1,)), margin=margin, l2=l2,
                               grad_sq=take((dim + 1,)))
        elif kind == KIND_LOGISTIC:
            model = LogisticModel(weights=take((dim + 1,)), l2=l2,
                                  grad_sq=take((dim + 1,)))
        else:
            raise ModelFormatError("unknown model kind %d" % kind)
    except struct.error as exc:
        raise ModelFormatError("truncated model payload") from exc
    if off != len(blob):
        raise ModelFormatError("%d trailing bytes after the model payload"
                               % (len(blob) - off))
    return model
