import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from vidbase import models as M

FD_STEP = 1e-5


def random_moe(rng, n_experts, dim, scale=0.5, l2=M.DEFAULT_L2):
    return M.MoEModel(gating=scale * rng.standard_normal((n_experts, dim + 1)),
                      experts=scale * rng.standard_normal((n_experts, dim + 1)),
                      l2=l2)


def one(x, g):
    """A single example as a batch of one with unit weight."""
    return np.atleast_2d(x), np.array([float(g)]), np.ones(1)


def random_batch(rng, dim, n):
    return (M.add_bias(rng.standard_normal((n, dim))),
            rng.integers(0, 2, size=n).astype(float), 0.5 + rng.random(n))


def central_diff(f, arr, i, step=FD_STEP):
    orig = arr.flat[i]
    arr.flat[i] = orig + step
    hi = f()
    arr.flat[i] = orig - step
    lo = f()
    arr.flat[i] = orig
    return (hi - lo) / (2 * step)


def assert_close(analytic, numeric, rel=1e-6, abs_floor=1e-8):
    tol = max(abs_floor, rel * max(abs(analytic), abs(numeric)))
    assert abs(analytic - numeric) <= tol, (analytic, numeric)


# ------------------------------------------------------------------ MoE

def test_moe_all_zeros():
    m = M.MoEModel.zeros(3, n_experts=1)
    x = M.add_bias(np.zeros(3))
    assert M.moe_predict(m, x) == pytest.approx(0.25, abs=1e-12)


def test_moe_gating_saturation():
    m = M.MoEModel.zeros(1, n_experts=1)
    m.gating[0] = [0.0, 50.0]  # w.x = 50 via the bias feature
    m.experts[0] = [1.0, 0.3]
    x = M.add_bias(np.array([0.7]))
    from scipy.special import expit
    assert M.moe_predict(m, x) == pytest.approx(
        float(expit(m.experts[0] @ x)), abs=1e-12)


def test_moe_matches_high_precision_formula():
    rng = np.random.default_rng(0)
    from mpmath import mp, exp as mexp
    mp.dps = 50
    for _ in range(20):
        m = random_moe(rng, 3, 4)
        x = M.add_bias(rng.standard_normal(4))
        acts = [float(w @ x) for w in m.gating]
        denom = 1 + sum(mexp(a) for a in acts)
        p_ref = sum((mexp(a) / denom) * (1 / (1 + mexp(-float(u @ x))))
                    for a, u in zip(acts, m.experts))
        assert abs(M.moe_predict(m, x) - float(p_ref)) < 1e-12


def test_moe_gating_sums_to_one_with_dummy():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = random_moe(rng, 4, 5, scale=2.0)
        x = M.add_bias(rng.standard_normal(5))
        gate = M.moe_gating(m, x)
        dummy = 1.0 / (1.0 + np.sum(np.exp(m.gating @ x)))
        assert abs(gate.sum() + dummy - 1.0) <= 1e-9
        assert M.moe_predict(m, x) < 1.0


def test_moe_h1_product_of_logistics():
    from scipy.special import expit
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = random_moe(rng, 1, 6, scale=1.5)
        x = M.add_bias(rng.standard_normal(6))
        product = float(expit(m.gating[0] @ x) * expit(m.experts[0] @ x))
        assert abs(M.moe_predict(m, x) - product) <= 1e-12


def test_moe_gradient_zero_when_p_equals_g():
    rng = np.random.default_rng(3)
    m = random_moe(rng, 2, 3, l2=0.0)
    x = M.add_bias(rng.standard_normal(3))
    g = float(M.moe_predict(m, x))
    d_gating, d_expert = m.gradient(*one(x, g))
    assert np.allclose(d_gating, 0.0, atol=1e-15)
    assert np.allclose(d_expert, 0.0, atol=1e-15)


def test_moe_hand_gradient():
    m = M.MoEModel.zeros(1, n_experts=1)
    x = np.array([1.0, 1.0])  # bias included
    d_gating, d_expert = m.gradient(*one(x, 1.0))
    assert np.allclose(d_gating, -0.5 * x.reshape(1, -1), atol=1e-12)
    assert np.allclose(d_expert, -0.5 * x.reshape(1, -1), atol=1e-12)


@pytest.mark.parametrize("n_experts", [1, 2, 4])
def test_moe_gradients_finite_difference(n_experts):
    rng = np.random.default_rng(10 + n_experts)
    for _ in range(50):
        dim = int(rng.integers(1, 8))
        m = random_moe(rng, n_experts, dim, l2=1e-3)
        x, y, w = random_batch(rng, dim, int(rng.integers(1, 5)))
        loss = lambda: m.loss(x, y, w)
        for param, grad in zip((m.gating, m.experts), m.gradient(x, y, w)):
            for i in range(param.size):
                assert_close(grad.flat[i], central_diff(loss, param, i))


def test_moe_gate_normalizer_matches_logsumexp():
    rng = np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for scale in (1e-3, 1.0, 30.0, 800.0, 1e5):
            for h in (1, 2, 4):
                act = scale * rng.standard_normal((64, h))
                act[0] = scale          # every activation at the top
                act[1] = -scale         # the dummy state dominates
                got = M._gate_log_normalizer(act)
                ref = logsumexp(np.concatenate(
                    [np.zeros((len(act), 1)), act], axis=1),
                    axis=1, keepdims=True)
                assert np.all(np.abs(got - ref)
                              <= 1e-14 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("kind", ["logistic", "hinge", "moe"])
def test_batch_gradients_match_sum(kind):
    """A batch gradient is the sum of its rows' batch-of-1 gradients, each
    carrying 1/N of the regularizer."""
    rng = np.random.default_rng(4)
    dim, n = 3, 6
    m = {"logistic": M.LogisticModel(weights=rng.standard_normal(dim + 1),
                                     l2=1e-2),
         "hinge": M.HingeModel(weights=rng.standard_normal(dim + 1), l2=1e-2),
         "moe": random_moe(rng, 2, dim, l2=1e-2)}[kind]
    xb, yb, wb = random_batch(rng, dim, n)
    batch = m.gradient(xb, yb, wb)
    rows = [m.gradient(xb[i:i + 1], yb[i:i + 1], wb[i:i + 1], 1.0 / n)
            for i in range(n)]
    assert len(batch) == len(m.params)
    for k, block in enumerate(batch):
        assert block.shape == m.params[k][0].shape
        np.testing.assert_allclose(block, sum(r[k] for r in rows),
                                   rtol=0.0, atol=1e-12)


# ------------------------------------------------------------- logistic

def test_logistic_zero_weights():
    m = M.LogisticModel.zeros(4)
    assert M.logistic_predict(m, M.add_bias(np.ones(4))) == 0.5


def test_logistic_no_underflow():
    m = M.LogisticModel(weights=np.array([-710.0, 0.0]))
    p = M.logistic_predict(m, np.array([1.0, 1.0]))
    assert p > 0.0


def test_logistic_high_precision():
    from mpmath import mp, exp as mexp
    mp.dps = 50
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = M.LogisticModel(weights=rng.standard_normal(5))
        x = M.add_bias(rng.standard_normal(4))
        ref = float(1 / (1 + mexp(-float(m.weights @ x))))
        assert abs(M.logistic_predict(m, x) - ref) < 1e-12


def test_logistic_gradient_at_zero():
    m = M.LogisticModel.zeros(3)
    x = M.add_bias(np.array([1.0, -2.0, 0.5]))
    (grad,) = m.gradient(*one(x, 0.5))
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_logistic_gradient_sign():
    rng = np.random.default_rng(6)
    m = M.LogisticModel(weights=rng.standard_normal(3), l2=0.0)
    x = M.add_bias(np.array([2.0, -1.0]))
    (up,) = m.gradient(*one(x, 1.0))
    (down,) = m.gradient(*one(x, 0.0))
    # moving against the gradient raises w.x for g=1, lowers it for g=0
    assert -up @ x > 0
    assert -down @ x < 0


def test_logistic_gradient_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = M.LogisticModel(weights=rng.standard_normal(6), l2=1e-3)
        x, y, w = random_batch(rng, 5, int(rng.integers(1, 5)))
        (grad,) = m.gradient(x, y, w)
        for i in range(len(m.weights)):
            assert_close(grad[i],
                         central_diff(lambda: m.loss(x, y, w), m.weights, i))


def test_logistic_loss_is_log_loss_of_prediction():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = M.LogisticModel(weights=rng.standard_normal(6), l2=1e-3)
        x, y, w = random_batch(rng, 5, 8)
        ref = (float(w @ M.log_loss(M.logistic_predict(m, x), y))
               + m.l2 * float(np.sum(m.weights[:-1] ** 2)))
        assert m.loss(x, y, w) == pytest.approx(ref, rel=1e-12)
    # far past the probability clamp the loss and gradient stay exact
    m = M.LogisticModel(weights=np.array([-800.0, 0.0]), l2=0.0)
    x, y, w = one(np.array([1.0, 1.0]), 1.0)
    assert m.loss(x, y, w) == 800.0
    assert np.array_equal(m.gradient(x, y, w)[0], -x[0])


# ---------------------------------------------------------------- hinge

def test_hinge_direct_formula():
    m = M.HingeModel(weights=np.array([0.5, 0.0]), l2=0.0)
    x = np.array([1.0, 1.0])
    assert m.loss(*one(x, 1.0)) == pytest.approx(0.5)
    assert np.array_equal(m.gradient(*one(x, 1.0))[0], -x)


def test_hinge_margin_satisfied():
    m = M.HingeModel(weights=np.array([2.0, 0.0]), l2=0.0)
    x = np.array([1.0, 1.0])
    assert m.loss(*one(x, 1.0)) == 0.0
    assert np.all(m.gradient(*one(x, 1.0))[0] == 0.0)


def test_hinge_subgradient_finite_difference():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 50:
        m = M.HingeModel(weights=rng.standard_normal(4), l2=1e-3)
        x, y, w = random_batch(rng, 3, int(rng.integers(1, 5)))
        s = 2 * y - 1
        if np.min(np.abs(m.margin - s * (x @ m.weights))) < 1e-3:
            continue  # stay away from the kink
        (sub,) = m.gradient(x, y, w)
        for i in range(len(m.weights)):
            assert_close(sub[i],
                         central_diff(lambda: m.loss(x, y, w), m.weights, i))
        checked += 1


def test_hinge_invalid_margin():
    with pytest.raises(ValueError):
        M.HingeModel(weights=np.zeros(2), margin=0.0)


# ---------------------------------------------------------- serialization

def random_models(rng):
    dim = int(rng.integers(1, 10))
    logistic = M.LogisticModel(weights=rng.standard_normal(dim + 1),
                               l2=1e-4, grad_sq=rng.random(dim + 1))
    hinge = M.HingeModel(weights=rng.standard_normal(dim + 1), margin=1.5,
                         l2=1e-5, grad_sq=rng.random(dim + 1))
    h = int(rng.integers(1, 5))
    moe = M.MoEModel(gating=rng.standard_normal((h, dim + 1)),
                     experts=rng.standard_normal((h, dim + 1)), l2=2e-6,
                     gating_grad_sq=rng.random((h, dim + 1)),
                     expert_grad_sq=rng.random((h, dim + 1)))
    return [logistic, hinge, moe]


def test_serialization_roundtrip_identity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        for model in random_models(rng):
            back = M.deserialize_model(M.serialize_model(model))
            assert back.kind == model.kind
            assert back.l2 == model.l2
            if model.kind == M.KIND_MOE:
                assert np.array_equal(back.gating, model.gating)
                assert np.array_equal(back.experts, model.experts)
                assert np.array_equal(back.gating_grad_sq, model.gating_grad_sq)
                assert np.array_equal(back.expert_grad_sq, model.expert_grad_sq)
            else:
                assert np.array_equal(back.weights, model.weights)
                assert np.array_equal(back.grad_sq, model.grad_sq)
                if model.kind == M.KIND_HINGE:
                    assert back.margin == model.margin


def test_serialization_prediction_invariance():
    rng = np.random.default_rng(10)
    x = M.add_bias(rng.standard_normal((20, 4)))
    m = M.MoEModel(gating=rng.standard_normal((2, 5)),
                   experts=rng.standard_normal((2, 5)))
    back = M.deserialize_model(M.serialize_model(m))
    assert np.array_equal(M.moe_predict(m, x), M.moe_predict(back, x))


def test_truncated_payload_rejected():
    m = M.LogisticModel.zeros(4)
    blob = M.serialize_model(m)
    with pytest.raises(M.ModelFormatError):
        M.deserialize_model(blob[:-8])


@pytest.mark.parametrize("model", [M.LogisticModel.zeros(4),
                                   M.HingeModel.zeros(4),
                                   M.MoEModel.zeros(4, n_experts=2)],
                         ids=["logistic", "hinge", "moe"])
def test_damaged_payload_rejected(model):
    blob = M.serialize_model(model)
    for size in (10, 20, len(blob) - 1):
        with pytest.raises(M.ModelFormatError, match="truncated"):
            M.deserialize_model(blob[:size])
    with pytest.raises(M.ModelFormatError, match="8 trailing bytes"):
        M.deserialize_model(blob + b"\0" * 8)


def test_bad_magic_rejected():
    with pytest.raises(M.ModelFormatError, match="bad magic"):
        M.deserialize_model(b"WRONGMAG" + b"\x00" * 64)


def test_zero_expert_moe_rejected():
    m = M.MoEModel.zeros(3, n_experts=1)
    blob = bytearray(M.serialize_model(m))
    # zero out the H field (after magic + version + kind + D)
    blob[17:21] = (0).to_bytes(4, "little")
    with pytest.raises(M.ModelFormatError, match="H >= 1"):
        M.deserialize_model(bytes(blob))
