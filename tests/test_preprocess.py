import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidbase import io
from vidbase import preprocess as pp


def test_whitening_identity_covariance():
    rng = np.random.default_rng(0)
    sample = rng.standard_normal((10_000, 6))
    sample -= sample.mean(axis=0)
    t = pp.fit_whitening(sample, d_out=6)
    z = pp.apply_whitening(t, sample)
    cov = z.T @ z / len(z)
    assert np.max(np.abs(cov - np.eye(6))) <= 5e-2
    assert np.max(np.abs(z.mean(axis=0))) <= 1e-10


def test_whitening_decorrelates():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(10_000)
    b = 0.9 * a + np.sqrt(1 - 0.9**2) * rng.standard_normal(10_000)
    sample = np.stack([a, b], axis=1)
    t = pp.fit_whitening(sample, d_out=2)
    z = pp.apply_whitening(t, sample)
    corr = np.corrcoef(z.T)[0, 1]
    assert abs(corr) < 0.05


def test_constant_sample_rank_error():
    sample = np.ones((100, 4))
    with pytest.raises(pp.RankError) as exc:
        pp.fit_whitening(sample, d_out=1)
    assert exc.value.effective_rank == 0


def test_eigen_order_decreasing_variance():
    rng = np.random.default_rng(2)
    sample = rng.standard_normal((5000, 3)) * np.array([5.0, 1.0, 0.2])
    t = pp.fit_whitening(sample, d_out=3)
    z = pp.apply_whitening(t, sample)
    # each output direction carries unit variance after whitening, so check
    # the matrix rows correspond to decreasing input variance instead
    row_scales = np.linalg.norm(t.matrix, axis=1)
    assert row_scales[0] < row_scales[1] < row_scales[2]
    assert np.max(np.abs(z.T @ z / len(z) - np.eye(3))) < 5e-2


def test_apply_whitening_centering():
    t = pp.WhiteningTransform(mean=np.array([1.0, 2.0]), matrix=np.eye(2))
    assert np.allclose(pp.apply_whitening(t, np.array([1.0, 2.0])), 0.0)


def test_apply_whitening_345():
    t = pp.WhiteningTransform(mean=np.zeros(2), matrix=np.eye(2))
    z = pp.unit_rows(pp.apply_whitening(t, np.array([3.0, 4.0])))
    assert np.allclose(z, [0.6, 0.8])


def test_unit_norm_property():
    rng = np.random.default_rng(3)
    t = pp.fit_whitening(rng.standard_normal((500, 5)), d_out=4)
    x = rng.standard_normal((100, 5))
    z = pp.unit_rows(pp.apply_whitening(t, x))
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)


def test_zero_projection_flagged():
    t = pp.WhiteningTransform(mean=np.array([1.0, 1.0]), matrix=np.eye(2))
    with pytest.warns(UserWarning, match="zero vector"):
        z = pp.unit_rows(pp.apply_whitening(t, np.array([1.0, 1.0])))
    assert np.all(z == 0.0)


def test_quantizer_uniform_boundaries():
    rng = np.random.default_rng(4)
    sample = rng.random((1_000_000, 1))
    q = pp.fit_quantizer(sample)
    expected = np.arange(1, 256) / 256
    assert np.max(np.abs(q.boundaries[0] - expected)) <= 5e-3


def test_quantizer_degenerate_dimension():
    sample = np.full((500, 2), 3.25)
    q = pp.fit_quantizer(sample)
    codes = pp.quantize(q, sample)
    assert len(np.unique(codes)) == 1
    rec = pp.dequantize(q, codes)
    assert np.all(rec == 3.25)


def test_quantizer_normal_roundtrip_rms():
    rng = np.random.default_rng(5)
    sample = rng.standard_normal((200_000, 1))
    q = pp.fit_quantizer(sample)
    rec = pp.dequantize(q, pp.quantize(q, sample))
    rms = float(np.sqrt(np.mean((rec - sample) ** 2)))
    assert rms < 0.02


def test_quantize_clamps():
    rng = np.random.default_rng(6)
    q = pp.fit_quantizer(rng.random((10_000, 1)))
    assert pp.quantize(q, np.array([-100.0]))[0] == 0
    assert pp.quantize(q, np.array([100.0]))[0] == 255


def test_quantizer_monotonicity():
    rng = np.random.default_rng(7)
    q = pp.fit_quantizer(rng.standard_normal((5000, 3)))
    x = np.sort(rng.standard_normal((200, 3)), axis=0)
    codes = pp.quantize(q, x)
    assert np.all(np.diff(codes.astype(int), axis=0) >= 0)


def test_roundtrip_containment():
    rng = np.random.default_rng(8)
    q = pp.fit_quantizer(rng.standard_normal((5000, 2)))
    x = rng.standard_normal((500, 2))
    codes = pp.quantize(q, x)
    rec = pp.dequantize(q, codes)
    assert np.array_equal(pp.quantize(q, rec), codes)


def test_reconstruct_orthonormal_inverse():
    rng = np.random.default_rng(9)
    basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    t = pp.WhiteningTransform(mean=np.zeros(3), matrix=basis)
    z = rng.standard_normal(3)
    x = pp.invert_whitening(t, z)
    assert np.allclose(x, basis.T @ z, atol=1e-6)
    assert np.allclose(pp.apply_whitening(t, x), z, atol=1e-10)


def test_reconstruct_recovers_mean():
    rng = np.random.default_rng(10)
    mu = np.array([4.0, -2.0, 1.0])
    sample = rng.standard_normal((5000, 3)) + mu
    t = pp.fit_whitening(sample, d_out=3)
    # the transform's own center whitens to zero and reconstructs back
    z = pp.apply_whitening(t, t.mean)
    assert np.allclose(z, 0.0, atol=1e-9)
    assert np.allclose(pp.invert_whitening(t, z), t.mean, atol=1e-9)
    assert np.allclose(t.mean, mu, atol=0.1)


def test_whiten_quantize_reconstruct_roundtrip():
    rng = np.random.default_rng(11)
    sample = rng.standard_normal((20_000, 8)) * rng.random(8) + rng.random(8)
    t = pp.fit_whitening(sample, d_out=8)
    z = pp.apply_whitening(t, sample)
    q = pp.fit_quantizer(z)
    codes = pp.quantize(q, z)
    x_hat = pp.invert_whitening(t, pp.dequantize(q, codes))
    rel = np.linalg.norm(x_hat - sample) / np.linalg.norm(sample)
    assert rel < 0.05
    z_again = pp.apply_whitening(t, x_hat)
    assert np.linalg.norm(z_again - z) / np.linalg.norm(z) < 0.05


def test_transform_file_roundtrip(tmp_path):
    # stored as float32 (the descriptors depend on these bits), read back
    # as float64
    rng = np.random.default_rng(12)
    t = pp.fit_whitening(rng.standard_normal((200, 4)), d_out=3)
    digest = pp.save_transform(t, tmp_path / "t.pca")
    back, back_digest = pp.load_transform(tmp_path / "t.pca")
    assert back_digest == digest
    assert back.matrix.shape == (3, 4)
    assert back.matrix.dtype == np.float64
    assert np.array_equal(back.mean, t.mean.astype(np.float32))
    assert np.array_equal(back.matrix, t.matrix.astype(np.float32))


def test_quantizer_file_roundtrip(tmp_path):
    # float64 on disk: the constructor gets the same quantizer back, even
    # a constant column's nextafter chain of boundaries
    rng = np.random.default_rng(13)
    sample = rng.standard_normal((5000, 2))
    sample[:, 1] = 0.1
    q = pp.fit_quantizer(sample)
    pp.save_quantizer(q, tmp_path / "q.qnt")
    back = pp.Quantizer(**io.load(tmp_path / "q.qnt", "quantizer").arrays)
    assert np.array_equal(back.boundaries, q.boundaries)
    assert np.array_equal(back.reconstruction, q.reconstruction)
    x = rng.standard_normal((100, 2))
    assert np.array_equal(pp.quantize(back, x.astype(np.float32)),
                          pp.quantize(q, x.astype(np.float32)))


@pytest.mark.parametrize("field", ["boundaries", "reconstruction"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quantizer_rejects_non_finite(field, bad):
    arrays = {"boundaries": np.tile(np.arange(pp.N_CODES - 1.0), (2, 1)),
              "reconstruction": np.tile(np.arange(pp.N_CODES - 0.5), (2, 1))}
    arrays[field][1, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        pp.Quantizer(**arrays)


# Test-only reference for quantize: one binary search per column.

def _ref_quantize(q, x):
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
    codes = np.empty(batch.shape, dtype=np.uint8)
    for j in range(q.dim):
        codes[:, j] = np.searchsorted(q.boundaries[j], batch[:, j],
                                      side="right")
    return codes


def _normal_quantizer(dim, seed=30):
    rng = np.random.default_rng(seed)
    return pp.fit_quantizer(rng.standard_normal((2000, dim))
                            * rng.exponential(size=dim))


def _columns(values, dim):
    """(len(values), dim) matrix whose column j is `values` rolled by j."""
    values = np.asarray(values, dtype=np.float64)
    return np.stack([np.roll(values, j) for j in range(dim)], axis=1)


@settings(max_examples=60, deadline=None)
@given(sample=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
       probe=st.lists(st.floats(), min_size=1, max_size=300),
       dim=st.integers(1, 4))
def test_quantize_matches_searchsorted_on_drawn_data(sample, probe, dim):
    q = pp.fit_quantizer(_columns(sample, dim))
    x = _columns(sample + probe, dim)
    assert np.array_equal(pp.quantize(q, x), _ref_quantize(q, x))


def test_quantize_exact_at_boundaries_and_neighbours():
    q = _normal_quantizer(3)
    for j in range(q.dim):
        b = q.boundaries[j]
        x = np.zeros((3 * len(b), q.dim))
        x[:, j] = np.concatenate((np.nextafter(b, -np.inf), b,
                                  np.nextafter(b, np.inf)))
        codes = pp.quantize(q, x)
        assert np.array_equal(codes, _ref_quantize(q, x))
        # b[i] itself and the value above it are in bin i + 1
        i = np.arange(len(b))
        assert np.array_equal(codes[:, j], np.concatenate((i, i + 1, i + 1)))


def test_quantize_signed_zeros_infinities_and_nan():
    # a boundary at exactly 0.0: -0.0 compares equal to it
    boundaries = np.tile(np.arange(-127.0, 128.0), (2, 1))
    q = pp.Quantizer(boundaries=boundaries,
                     reconstruction=np.tile(np.arange(-127.5, 128.0), (2, 1)))
    x = _columns([0.0, -0.0, np.inf, -np.inf, np.nan], 2)
    codes = pp.quantize(q, x)
    assert np.array_equal(codes, _ref_quantize(q, x))
    assert codes[:, 0].tolist() == [128, 128, 255, 0, 255]


def test_quantize_nextafter_chain_column():
    # a constant sample fits a column whose 255 boundaries are consecutive
    # floats; the other column is ordinary
    rng = np.random.default_rng(31)
    sample = np.stack((np.full(500, 3.25), rng.standard_normal(500)), axis=1)
    q = pp.fit_quantizer(sample)
    chain = q.boundaries[0]
    assert np.array_equal(chain[1:], np.nextafter(chain[:-1], np.inf))
    values = np.concatenate(([np.nextafter(chain[0], -np.inf)], chain,
                             [np.nextafter(chain[-1], np.inf), 3.0, 4.0]))
    x = _columns(values, 2)
    codes = pp.quantize(q, x)
    assert np.array_equal(codes, _ref_quantize(q, x))
    assert codes[:, 0].tolist() == [0, *range(1, 256), 255, 0, 255]


def test_quantize_float32_fortran_vector_and_empty_batch():
    q = _normal_quantizer(5)
    x32 = np.random.default_rng(32).standard_normal((50, 5)).astype(np.float32)
    want = _ref_quantize(q, x32.astype(np.float64))
    assert np.array_equal(pp.quantize(q, x32), want)
    assert np.array_equal(pp.quantize(q, np.asfortranarray(x32)), want)
    one = pp.quantize(q, x32[3])
    assert one.shape == (5,) and one.dtype == np.uint8
    assert np.array_equal(one, _ref_quantize(q, x32[3])[0])
    assert np.array_equal(pp.quantize(q, x32.reshape(5, 10, 5)),
                          want.reshape(5, 10, 5))
    empty = pp.quantize(q, np.empty((0, 5)))
    assert empty.shape == (0, 5) and empty.dtype == np.uint8
    with pytest.raises(ValueError, match="dimension mismatch"):
        pp.quantize(q, np.zeros((2, 4)))


@pytest.mark.parametrize("elements", [1, 7, pp.QUANTIZE_ELEMENTS])
def test_quantize_ragged_last_chunk(monkeypatch, elements):
    monkeypatch.setattr(pp, "QUANTIZE_ELEMENTS", elements)
    q = _normal_quantizer(3)
    rows = max(1, elements // q.dim)
    x = np.random.default_rng(33).standard_normal((2 * rows + 1, 3)) * 2.0
    assert np.array_equal(pp.quantize(q, x), _ref_quantize(q, x))


@pytest.mark.parametrize("elements", [1, 7, pp.QUANTIZE_ELEMENTS])
def test_dequantize_chunks_match_one_gather(monkeypatch, elements):
    # gathered a chunk of rows at a time, bit for bit the one-shot gather,
    # also across a chunk boundary and in the last, ragged chunk
    monkeypatch.setattr(pp, "QUANTIZE_ELEMENTS", elements)
    q = _normal_quantizer(3)
    rows = max(1, elements // q.dim)
    codes = np.random.default_rng(34).integers(0, pp.N_CODES,
                                               size=(2 * rows + 1, 3),
                                               dtype=np.uint8)
    want = q.reconstruction[np.arange(q.dim), codes]
    got = pp.dequantize(q, codes)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert pp.dequantize(q, codes[0]).tobytes() == want[0].tobytes()
    assert pp.dequantize(q, codes[:1, None]).shape == (1, 1, 3)


# Test-only reference: the per-pass Lloyd-Max fit, which bins every sample
# again on each iteration. The shipped fit sorts each column once.

def _ref_strictly_increasing(b):
    for i in range(1, len(b)):
        if b[i] <= b[i - 1]:
            b[i] = np.nextafter(b[i - 1], np.inf)
    return b


def _ref_bin_representatives(column, boundaries):
    codes = np.searchsorted(boundaries, column, side="right")
    sums = np.bincount(codes, weights=column, minlength=pp.N_CODES)
    counts = np.bincount(codes, minlength=pp.N_CODES)
    lo = np.concatenate(([-np.inf], boundaries))
    hi = np.concatenate((boundaries, [np.inf]))
    mid = 0.5 * (lo + hi)
    mid[0] = boundaries[0]
    mid[-1] = boundaries[-1]
    rec = np.where(counts > 0, sums / np.maximum(counts, 1), mid)
    return np.clip(rec, lo, hi)


def _ref_fit_quantizer(values, refine_iterations=10):
    values = np.asarray(values, dtype=np.float64)
    probs = np.arange(1, pp.N_CODES) / pp.N_CODES
    boundaries = np.quantile(values, probs, axis=0).T
    reconstruction = np.empty((values.shape[1], pp.N_CODES))
    for j in range(values.shape[1]):
        b = _ref_strictly_increasing(boundaries[j])
        rec = _ref_bin_representatives(values[:, j], b)
        for _ in range(refine_iterations):
            b = _ref_strictly_increasing(0.5 * (rec[:-1] + rec[1:]))
            rec = _ref_bin_representatives(values[:, j], b)
        boundaries[j] = b
        reconstruction[j] = rec
    return pp.Quantizer(boundaries=boundaries, reconstruction=reconstruction)


def _ties_sample(rng):
    # five integer levels, half the sample at the largest: most quantiles
    # tie, and the bins nudged above the largest value stay empty on every
    # Lloyd pass (trailing empty bins)
    return rng.choice([0.0, 1.0, 2.0, 3.0, 7.0], p=[0.2, 0.15, 0.1, 0.05, 0.5],
                      size=(20_000, 2))


QUANTIZER_SAMPLES = {
    "ties-trailing-empty": _ties_sample,
    "constant": lambda rng: np.full((300, 2), -1.5),
    "n1": lambda rng: rng.standard_normal((1, 3)),
    "n-below-256": lambda rng: rng.standard_normal((100, 3)),
    "cauchy": lambda rng: rng.standard_cauchy((20_000, 2)),
    "f4-rounded": lambda rng: rng.standard_normal((20_000, 2))
    .astype(np.float32).astype(np.float64),
}


@pytest.mark.parametrize("case", sorted(QUANTIZER_SAMPLES))
def test_fit_quantizer_matches_per_pass_reference(case):
    rng = np.random.default_rng(21)
    sample = QUANTIZER_SAMPLES[case](rng)
    ref = _ref_fit_quantizer(sample)
    q = pp.fit_quantizer(sample)
    for got, want in ((q.boundaries, ref.boundaries),
                      (q.reconstruction, ref.reconstruction)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    probe = np.concatenate((sample, rng.standard_normal(sample.shape) * 3.0))
    assert np.array_equal(pp.quantize(q, probe), _ref_quantize(ref, probe))


def test_ties_sample_has_trailing_empty_bins():
    # the case the sentinel in fit_quantizer guards: at the initial
    # quantile boundaries the last non-empty bin is followed by empty ones
    column = _ties_sample(np.random.default_rng(21))[:, 0]
    b = _ref_strictly_increasing(
        np.quantile(column, np.arange(1, pp.N_CODES) / pp.N_CODES))
    codes = np.searchsorted(b, column, side="right")
    assert codes.max() < pp.N_CODES - 1


def _quantile_fit_quantizer(values, refine_iterations=10):
    # fit_quantizer with its initial boundaries from np.quantile on each
    # sorted column
    probs = np.arange(1, pp.N_CODES) / pp.N_CODES
    boundaries, reconstruction = [], []
    for column in values.T:
        padded = np.append(np.sort(column), 0.0)
        b = pp._strictly_increasing(np.quantile(padded[:-1], probs))
        rec = pp._bin_representatives(padded, b)
        for _ in range(refine_iterations):
            b = pp._strictly_increasing(0.5 * (rec[:-1] + rec[1:]))
            rec = pp._bin_representatives(padded, b)
        boundaries.append(b)
        reconstruction.append(rec)
    return np.array(boundaries), np.array(reconstruction)


SMALL_SAMPLES = {
    "n2": lambda rng: rng.standard_normal((2, 3)),
    "n3": lambda rng: rng.standard_normal((3, 3)),
    # numpy keeps a lone -0.0 as it is
    "n1-signed-zeros": lambda rng: np.array([[rng.standard_normal(), -0.0,
                                              0.0]]),
}


@pytest.mark.parametrize("case", sorted(QUANTIZER_SAMPLES)
                         + sorted(SMALL_SAMPLES))
def test_fit_quantizer_quantiles_bit_equal_np_quantile(case):
    rng = np.random.default_rng(23)
    sample = {**QUANTIZER_SAMPLES, **SMALL_SAMPLES}[case](rng)
    q = pp.fit_quantizer(sample)
    boundaries, reconstruction = _quantile_fit_quantizer(sample)
    assert q.boundaries.view(np.int64).tolist() == \
        boundaries.view(np.int64).tolist()
    assert q.reconstruction.view(np.int64).tolist() == \
        reconstruction.view(np.int64).tolist()
    # the initial quantiles alone, before any Lloyd pass
    assert pp.fit_quantizer(sample, refine_iterations=0).boundaries.tobytes() \
        == _quantile_fit_quantizer(sample, refine_iterations=0)[0].tobytes()


def test_invert_whitening_computes_pinv_once(monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda a: calls.append(1) or pinv(a))
    rng = np.random.default_rng(22)
    t = pp.fit_whitening(rng.standard_normal((200, 4)), d_out=3)
    z = rng.standard_normal((5, 3))
    first = pp.invert_whitening(t, z)
    for _ in range(3):
        assert np.array_equal(pp.invert_whitening(t, z), first)
    assert len(calls) == 1
    assert np.array_equal(first, z @ pinv(t.matrix).T + t.mean)
