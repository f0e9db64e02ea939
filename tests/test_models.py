import warnings

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from vidbase import io
from vidbase import models as M
from vidbase.io import DataFormatError

FD_STEP = 1e-5


def random_moe(rng, n_experts, dim, scale=0.5, l2=M.DEFAULT_L2, n_labels=1):
    shape = (n_labels, n_experts, dim + 1)
    return M.MoEModel(gating=scale * rng.standard_normal(shape),
                      experts=scale * rng.standard_normal(shape), l2=l2)


def one(x, g):
    """A single example as one label's batch of one with unit weight."""
    return np.reshape(x, (1, 1, -1)), np.array([[float(g)]]), np.ones((1, 1))


def row(x):
    """A (D+1,) vector as a (1, D+1) matrix to predict on."""
    return np.reshape(x, (1, -1))


def random_batch(rng, dim, n, n_labels=1):
    return (M.add_bias(rng.standard_normal((n_labels * n, dim)))
            .reshape(n_labels, n, dim + 1),
            rng.integers(0, 2, size=(n_labels, n)).astype(float),
            0.5 + rng.random((n_labels, n)))


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


def test_add_bias_over_leading_axes():
    x = np.arange(24.0).reshape(2, 3, 4)
    stacked = M.add_bias(x)
    assert stacked.shape == (2, 3, 5) and np.all(stacked[..., 4] == 1.0)
    assert np.array_equal(stacked[1], M.add_bias(x[1]))
    assert np.array_equal(stacked[1, 2], M.add_bias(x[1, 2]))
    assert np.array_equal(stacked[..., :4], x)


# ------------------------------------------------------------------ MoE

def test_moe_all_zeros():
    m = M.MoEModel.zeros(3, n_experts=1)
    x = M.add_bias(np.zeros((1, 3)))
    assert M.moe_predict(m, x).shape == (1, 1)
    assert M.moe_predict(m, x)[0, 0] == pytest.approx(0.25, abs=1e-12)


def test_moe_gating_saturation():
    m = M.MoEModel.zeros(1, n_experts=1)
    m.gating[0, 0] = [0.0, 50.0]  # w.x = 50 via the bias feature
    m.experts[0, 0] = [1.0, 0.3]
    x = M.add_bias(np.array([0.7]))
    assert M.moe_predict(m, row(x))[0, 0] == pytest.approx(
        float(expit(m.experts[0, 0] @ x)), abs=1e-12)


def test_moe_matches_high_precision_formula():
    rng = np.random.default_rng(0)
    from mpmath import mp, exp as mexp
    mp.dps = 50
    for _ in range(20):
        m = random_moe(rng, 3, 4)
        x = M.add_bias(rng.standard_normal(4))
        acts = [float(w @ x) for w in m.gating[0]]
        denom = 1 + sum(mexp(a) for a in acts)
        p_ref = sum((mexp(a) / denom) * (1 / (1 + mexp(-float(u @ x))))
                    for a, u in zip(acts, m.experts[0]))
        assert abs(M.moe_predict(m, row(x))[0, 0] - float(p_ref)) < 1e-12


def test_moe_gating_sums_to_one_with_dummy():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = random_moe(rng, 4, 5, scale=2.0)
        x = M.add_bias(rng.standard_normal(5))
        gate = M.moe_gating(m, row(x))
        assert gate.shape == (1, 1, 4)
        dummy = 1.0 / (1.0 + np.sum(np.exp(m.gating[0] @ x)))
        assert abs(gate.sum() + dummy - 1.0) <= 1e-9
        assert M.moe_predict(m, row(x))[0, 0] < 1.0


def test_moe_h1_product_of_logistics():
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = random_moe(rng, 1, 6, scale=1.5)
        x = M.add_bias(rng.standard_normal(6))
        product = float(expit(m.gating[0, 0] @ x) * expit(m.experts[0, 0] @ x))
        assert abs(M.moe_predict(m, row(x))[0, 0] - product) <= 1e-12


def test_moe_gradient_zero_when_p_equals_g():
    rng = np.random.default_rng(3)
    m = random_moe(rng, 2, 3, l2=0.0)
    x = M.add_bias(rng.standard_normal(3))
    g = float(M.moe_predict(m, row(x))[0, 0])
    d_gating, d_expert = m.gradient(*one(x, g))
    assert np.allclose(d_gating, 0.0, atol=1e-15)
    assert np.allclose(d_expert, 0.0, atol=1e-15)


def test_moe_hand_gradient():
    m = M.MoEModel.zeros(1, n_experts=1)
    x = np.array([1.0, 1.0])  # bias included
    d_gating, d_expert = m.gradient(*one(x, 1.0))
    assert d_gating.shape == d_expert.shape == (1, 1, 2)
    assert np.allclose(d_gating, -0.5 * x, atol=1e-12)
    assert np.allclose(d_expert, -0.5 * x, atol=1e-12)


@pytest.mark.parametrize("n_experts", [1, 2, 4])
def test_moe_gradients_finite_difference(n_experts):
    rng = np.random.default_rng(10 + n_experts)
    for _ in range(50):
        dim = int(rng.integers(1, 8))
        m = random_moe(rng, n_experts, dim, l2=1e-3)
        x, y, w = random_batch(rng, dim, int(rng.integers(1, 5)))
        loss = lambda: float(m.loss(x, y, w)[0])
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
    m = {"logistic": M.LogisticModel(weights=rng.standard_normal((1, dim + 1)),
                                     l2=1e-2),
         "hinge": M.HingeModel(weights=rng.standard_normal((1, dim + 1)),
                               l2=1e-2),
         "moe": random_moe(rng, 2, dim, l2=1e-2)}[kind]
    xb, yb, wb = random_batch(rng, dim, n)
    batch = m.gradient(xb, yb, wb)
    rows = [m.gradient(xb[:, i:i + 1], yb[:, i:i + 1], wb[:, i:i + 1],
                       np.array([1.0 / n]))
            for i in range(n)]
    assert len(batch) == len(m.params)
    for k, block in enumerate(batch):
        assert block.shape == m.params[k].shape
        np.testing.assert_allclose(block, sum(r[k] for r in rows),
                                   rtol=0.0, atol=1e-12)


def random_stack(kind, rng, n_labels, dim, l2=1e-2):
    shape = (n_labels, dim + 1)
    if kind == "logistic":
        return M.LogisticModel(weights=rng.standard_normal(shape), l2=l2)
    if kind == "hinge":
        return M.HingeModel(weights=rng.standard_normal(shape), margin=0.7,
                            l2=l2)
    return random_moe(rng, 3, dim, scale=1.0, l2=l2, n_labels=n_labels)


@pytest.mark.parametrize("kind", ["logistic", "hinge", "moe"])
def test_stacked_model_equals_its_labels(kind):
    """Loss and gradient of a stack of labels are the labels' own, bit for
    bit, with each label's reg_scale, and so are the loss and predict on a
    matrix shared by the labels, which gives one column per label."""
    rng = np.random.default_rng(14)
    dim, n_labels = 6, 4
    m = random_stack(kind, rng, n_labels, dim)
    for n in (1, 5, 32):
        x, y, w = random_batch(rng, dim, n, n_labels=n_labels)
        w[1, n // 2:] = 0.0     # zero-weight rows, as a trainer's padding
        reg_scale = rng.random(n_labels)
        loss, grads = m.loss(x, y, w), m.gradient(x, y, w, reg_scale)
        shared = M.add_bias(rng.standard_normal((n, dim)))
        shared_loss, scores = m.loss(shared, y, w), M.predict(m, shared)
        assert loss.shape == shared_loss.shape == (n_labels,)
        assert scores.shape == (n, n_labels)
        for k in range(n_labels):
            one_label = m.label(k)
            assert one_label.n_labels == 1
            sl = slice(k, k + 1)
            assert np.array_equal(
                one_label.loss(x[sl], y[sl], w[sl]), loss[sl])
            for got, want in zip(
                    grads, one_label.gradient(x[sl], y[sl], w[sl],
                                              reg_scale[sl])):
                assert np.array_equal(got[sl], want)
            assert np.array_equal(
                one_label.loss(shared, y[sl], w[sl]), shared_loss[sl])
            assert np.array_equal(scores[:, k],
                                  M.predict(one_label, shared)[:, 0])


@pytest.mark.parametrize("kind", ["logistic", "hinge", "moe"])
def test_stack_models_round_trips_labels(kind):
    rng = np.random.default_rng(15)
    m = random_stack(kind, rng, 3, 4)
    labels = [m.label(k) for k in range(3)]
    back = M.stack_models(labels)
    assert back.n_labels == 3
    for got, want in zip(back.params, m.params):
        assert np.array_equal(got, want)
    # label() copies: updating the copy leaves the stack alone
    labels[0].params[0][...] = 0.0
    assert np.array_equal(back.params[0], m.params[0])


# ------------------------------------------------------------- logistic

def test_logistic_zero_weights():
    m = M.LogisticModel.zeros(4)
    assert M.logistic_predict(m, M.add_bias(np.ones((1, 4)))) == 0.5


def test_logistic_no_underflow():
    m = M.LogisticModel(weights=np.array([[-710.0, 0.0]]))
    p = M.logistic_predict(m, np.array([[1.0, 1.0]]))
    assert p[0, 0] > 0.0


def test_logistic_high_precision():
    from mpmath import mp, exp as mexp
    mp.dps = 50
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = M.LogisticModel(weights=rng.standard_normal((1, 5)))
        x = M.add_bias(rng.standard_normal(4))
        ref = float(1 / (1 + mexp(-float(m.weights[0] @ x))))
        assert abs(M.logistic_predict(m, row(x))[0, 0] - ref) < 1e-12


def test_logistic_gradient_at_zero():
    m = M.LogisticModel.zeros(3)
    x = M.add_bias(np.array([1.0, -2.0, 0.5]))
    (grad,) = m.gradient(*one(x, 0.5))
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_logistic_gradient_sign():
    rng = np.random.default_rng(6)
    m = M.LogisticModel(weights=rng.standard_normal((1, 3)), l2=0.0)
    x = M.add_bias(np.array([2.0, -1.0]))
    (up,) = m.gradient(*one(x, 1.0))
    (down,) = m.gradient(*one(x, 0.0))
    # moving against the gradient raises w.x for g=1, lowers it for g=0
    assert -up[0] @ x > 0
    assert -down[0] @ x < 0


def test_logistic_gradient_finite_difference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = M.LogisticModel(weights=rng.standard_normal((1, 6)), l2=1e-3)
        x, y, w = random_batch(rng, 5, int(rng.integers(1, 5)))
        (grad,) = m.gradient(x, y, w)
        for i in range(m.weights.size):
            assert_close(grad.flat[i],
                         central_diff(lambda: float(m.loss(x, y, w)[0]),
                                      m.weights, i))


def test_logistic_loss_is_log_loss_of_prediction():
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = M.LogisticModel(weights=rng.standard_normal((1, 6)), l2=1e-3)
        x, y, w = random_batch(rng, 5, 8)
        ref = (float(w[0] @ M.log_loss(M.logistic_predict(m, x[0])[:, 0],
                                       y[0]))
               + m.l2 * float(np.sum(m.weights[0, :-1] ** 2)))
        assert m.loss(x, y, w)[0] == pytest.approx(ref, rel=1e-12)
    # far past the probability clamp the loss and gradient stay exact
    m = M.LogisticModel(weights=np.array([[-800.0, 0.0]]), l2=0.0)
    x, y, w = one(np.array([1.0, 1.0]), 1.0)
    assert m.loss(x, y, w)[0] == 800.0
    assert np.array_equal(m.gradient(x, y, w)[0], -x[0])


# ---------------------------------------------------------------- hinge

def test_hinge_direct_formula():
    m = M.HingeModel(weights=np.array([[0.5, 0.0]]), l2=0.0)
    x = np.array([1.0, 1.0])
    assert m.loss(*one(x, 1.0))[0] == pytest.approx(0.5)
    assert np.array_equal(m.gradient(*one(x, 1.0))[0], -row(x))


def test_hinge_margin_satisfied():
    m = M.HingeModel(weights=np.array([[2.0, 0.0]]), l2=0.0)
    x = np.array([1.0, 1.0])
    assert m.loss(*one(x, 1.0))[0] == 0.0
    assert np.all(m.gradient(*one(x, 1.0))[0] == 0.0)


def test_hinge_subgradient_finite_difference():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 50:
        m = M.HingeModel(weights=rng.standard_normal((1, 4)), l2=1e-3)
        x, y, w = random_batch(rng, 3, int(rng.integers(1, 5)))
        s = 2 * y - 1
        if np.min(np.abs(m.margin - s * (x[0] @ m.weights[0]))) < 1e-3:
            continue  # stay away from the kink
        (sub,) = m.gradient(x, y, w)
        for i in range(m.weights.size):
            assert_close(sub.flat[i],
                         central_diff(lambda: float(m.loss(x, y, w)[0]),
                                      m.weights, i))
        checked += 1


def test_hinge_invalid_margin():
    with pytest.raises(ValueError):
        M.HingeModel(weights=np.zeros((1, 2)), margin=0.0)


def test_hinge_rejects_a_nan_margin():
    # `margin <= 0` is False for NaN
    with pytest.raises(ValueError, match="margin"):
        M.HingeModel(weights=np.zeros((1, 2)), margin=float("nan"))


# ---------------------------------------------------------- serialization

def random_models(rng):
    dim = int(rng.integers(1, 10))
    logistic = M.LogisticModel(weights=rng.standard_normal((1, dim + 1)),
                               l2=1e-4)
    hinge = M.HingeModel(weights=rng.standard_normal((1, dim + 1)),
                         margin=1.5, l2=1e-5)
    shape = (1, int(rng.integers(1, 5)), dim + 1)
    moe = M.MoEModel(gating=rng.standard_normal(shape),
                     experts=rng.standard_normal(shape), l2=2e-6)
    return [logistic, hinge, moe]


def _bank_file(tmp_path, model, name="m.bank"):
    """A bank container holding `model`, as train writes one."""
    arrays, settings = M.serialize_model(model)
    path = tmp_path / name
    io.save(path, "bank", arrays, {"params": settings})
    return path


def _load_model(path):
    container = io.load(path, "bank")
    return M.deserialize_model(container.arrays, container.meta["params"])


def test_serialization_roundtrip_identity(tmp_path):
    rng = np.random.default_rng(9)
    for _ in range(20):
        for model in random_models(rng):
            back = _load_model(_bank_file(tmp_path, model))
            assert back.kind == model.kind
            assert back.l2 == model.l2
            if model.kind == "moe":
                assert np.array_equal(back.gating, model.gating)
                assert np.array_equal(back.experts, model.experts)
            else:
                assert np.array_equal(back.weights, model.weights)
                if model.kind == "hinge":
                    assert back.margin == model.margin


@pytest.mark.parametrize("kind", ["logistic", "hinge", "moe"])
def test_serialization_roundtrips_a_stack(tmp_path, kind):
    # a bank is one stacked model: its arrays come back bit for bit, as
    # float64 views of the file's buffer
    m = random_stack(kind, np.random.default_rng(16), 5, 3, l2=3e-7)
    back = _load_model(_bank_file(tmp_path, m))
    assert back.n_labels == 5 and back.l2 == m.l2
    for name in m.ARRAYS:
        got = getattr(back, name)
        assert got.dtype == np.float64
        assert got.tobytes() == getattr(m, name).tobytes()


def test_serialization_prediction_invariance(tmp_path):
    rng = np.random.default_rng(10)
    x = M.add_bias(rng.standard_normal((20, 4)))
    m = M.MoEModel(gating=rng.standard_normal((1, 2, 5)),
                   experts=rng.standard_normal((1, 2, 5)))
    back = _load_model(_bank_file(tmp_path, m))
    assert np.array_equal(M.moe_predict(m, x), M.moe_predict(back, x))


def test_truncated_payload_rejected(tmp_path):
    path = _bank_file(tmp_path, M.LogisticModel.zeros(4))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataFormatError, match="truncated"):
        _load_model(path)


@pytest.mark.parametrize("model", [M.LogisticModel.zeros(4),
                                   M.HingeModel.zeros(4),
                                   M.MoEModel.zeros(4, n_experts=2)],
                         ids=["logistic", "hinge", "moe"])
def test_damaged_payload_rejected(tmp_path, model):
    path = _bank_file(tmp_path, model)
    blob = path.read_bytes()
    for size in (10, 30, len(blob) - 1):
        path.write_bytes(blob[:size])
        with pytest.raises(DataFormatError, match="truncated") as err:
            _load_model(path)
        assert str(path) in str(err.value)
    path.write_bytes(blob + b"\0" * 8)
    with pytest.raises(DataFormatError, match="8 trailing bytes"):
        _load_model(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x.bank"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="bad magic"):
        _load_model(path)


def test_zero_expert_moe_rejected():
    m = M.MoEModel.zeros(3, n_experts=1)
    arrays, settings = M.serialize_model(m)
    arrays = {name: a[:, :0] for name, a in arrays.items()}
    with pytest.raises(ValueError, match="at least one expert"):
        M.deserialize_model(arrays, settings)


@pytest.mark.parametrize("edit", [
    lambda arrays, settings: settings.pop("kind"),
    lambda arrays, settings: settings.update(kind=9),
    lambda arrays, settings: settings.pop("margin"),
    lambda arrays, settings: arrays.pop("weights"),
], ids=["no-kind", "unknown-kind", "no-margin", "no-array"])
def test_deserialize_rejects_incomplete_model(edit):
    arrays, settings = M.serialize_model(M.HingeModel.zeros(3))
    edit(arrays, settings)
    with pytest.raises(DataFormatError, match="a model needs"):
        M.deserialize_model(arrays, settings)


# ------------------------------------------------------------- sigmoid

def test_expit_matches_scipy():
    """The numpy sigmoid is within 4 ulp of scipy's for z >= -709 (numpy's
    exp differs from libm's in the last bit); beneath, -z is capped at 709
    and the result stays below 1.3e-308."""
    rng = np.random.default_rng(2)
    z = np.concatenate([np.linspace(-709.0, 40.0, 400_001),
                        30.0 * rng.standard_normal(100_000)])
    z = z[z >= -709.0]
    got, want = M.expit(z), expit(z)
    assert np.max(np.abs(got - want) / np.spacing(want)) <= 4.0
    deep = M.expit(np.array([-709.5, -745.0, -1e4, -1e308, -np.inf]))
    assert np.all((deep > 0.0) & (deep < 1.3e-308))


def test_expit_does_not_warn_at_extremes():
    z = np.array([1e308, -1e308, np.inf, -np.inf, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = M.expit(z)
    assert got[0] == got[2] == 1.0 and got[4] == 0.5
    assert 0.0 < got[1] == got[3] < 1.3e-308
