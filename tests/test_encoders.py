import numpy as np
import pytest
from scipy.special import logsumexp

from vidbase import encoders as enc
from vidbase import io


def planted_clusters(seed, centers, per_cluster=200, scale=0.05):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=np.float64)
    parts = [c + scale * rng.standard_normal((per_cluster, centers.shape[1]))
             for c in centers]
    return np.concatenate(parts)


def test_gmm_single_component_closed_form():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 3)) * [1.0, 2.0, 0.5] + [1.0, -1.0, 0.0]
    gmm = enc.fit_gmm(x, 1, seed=0)
    assert np.allclose(gmm.weights, [1.0])
    assert np.allclose(gmm.means[0], x.mean(axis=0), atol=1e-8)
    assert np.allclose(gmm.variances[0], x.var(axis=0), atol=1e-8)


def test_gmm_recovers_planted_clusters():
    true = np.array([[-4.0, 0.0], [4.0, 0.0]])
    x = planted_clusters(1, true, per_cluster=500, scale=0.3)
    gmm = enc.fit_gmm(x, 2, seed=1)
    got = gmm.means[np.argsort(gmm.means[:, 0])]
    assert np.max(np.abs(got - true)) < 0.1


def test_gmm_loglikelihood_monotone():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.standard_normal((300, 3)) - 2,
                        rng.standard_normal((300, 3)) + 2])
    gmm = enc.fit_gmm(x, 3, seed=2)
    ll = np.asarray(gmm.log_likelihoods)
    assert len(ll) >= 2
    assert np.all(np.diff(ll) >= -1e-9)


def test_gmm_posteriors_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 4))
    gmm = enc.fit_gmm(x, 2, seed=3)
    gamma = enc.gmm_posteriors(x, gmm)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)


def test_fisher_symmetric_cancellation():
    gmm = enc.GmmCodebook(weights=[1.0], means=[[0.0]], variances=[[1.0]])
    fv = enc.encode_fisher(np.array([[1.0], [-1.0]]), gmm)
    assert np.allclose(fv, 0.0, atol=1e-12)


def test_fisher_hand_case():
    gmm = enc.GmmCodebook(weights=[1.0], means=[[0.0]], variances=[[1.0]])
    fv = enc.encode_fisher(np.array([[2.0]]), gmm)
    assert np.allclose(fv, [2.0, 3.0 / np.sqrt(2.0)], atol=1e-12)


def test_fisher_dimensionality():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 8))
    gmm = enc.fit_gmm(x, 4, seed=4)
    fv = enc.encode_fisher(x[:10], gmm)
    assert fv.shape == (2 * 4 * 8,)


def test_fisher_permutation_and_duplication_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 3))
    gmm = enc.fit_gmm(rng.standard_normal((100, 3)), 2, seed=5)
    fv = enc.encode_fisher(x, gmm)
    fv_perm = enc.encode_fisher(x[rng.permutation(50)], gmm)
    assert np.allclose(fv, fv_perm, atol=1e-12)
    one = x[:1]
    assert np.allclose(enc.encode_fisher(one, gmm),
                       enc.encode_fisher(np.concatenate([one, one]), gmm),
                       atol=1e-12)


def test_kmeans_saturated():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    km = enc.fit_kmeans(x, 3, seed=0)
    assert km.sse_trace[-1] == pytest.approx(0.0, abs=1e-12)
    assert {tuple(c) for c in km.centers} == {tuple(p) for p in x}


def test_kmeans_recovers_planted_clusters():
    true = np.array([[0.0, 5.0], [5.0, 0.0], [-5.0, -5.0]])
    x = planted_clusters(6, true, per_cluster=300, scale=0.3)
    km = enc.fit_kmeans(x, 3, seed=6)
    order = np.argsort(km.centers[:, 0])
    got = km.centers[order]
    expect = true[np.argsort(true[:, 0])]
    assert np.max(np.abs(got - expect)) < 0.1


def test_kmeans_sse_monotone():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((400, 5))
    km = enc.fit_kmeans(x, 6, seed=7)
    assert np.all(np.diff(km.sse_trace) <= 1e-9)


def test_vlad_hand_case():
    cb = enc.KmeansCodebook(centers=[[0.0, 0.0]])
    v = enc.encode_vlad(np.array([[1.0, 0.0], [0.0, 1.0]]), cb)
    assert np.allclose(v, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-9)


def test_vlad_zero_residual_flagged():
    cb = enc.KmeansCodebook(centers=[[1.0, 2.0]])
    with pytest.warns(UserWarning, match="all-zero"):
        v = enc.encode_vlad(np.array([[1.0, 2.0], [1.0, 2.0]]), cb)
    assert np.all(v == 0.0)


def test_vlad_unit_norm_and_dimension():
    rng = np.random.default_rng(8)
    for k, dim in [(1, 2), (4, 3), (8, 5)]:
        cb = enc.KmeansCodebook(centers=rng.standard_normal((k, dim)))
        v = enc.encode_vlad(rng.standard_normal((30, dim)), cb)
        assert v.shape == (k * dim,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)


def test_vlad_permutation_invariance():
    rng = np.random.default_rng(9)
    cb = enc.KmeansCodebook(centers=rng.standard_normal((3, 4)))
    x = rng.standard_normal((40, 4))
    assert np.allclose(enc.encode_vlad(x, cb),
                       enc.encode_vlad(x[rng.permutation(40)], cb),
                       atol=1e-12)


def test_vlad_tie_goes_to_lowest_index():
    cb = enc.KmeansCodebook(centers=[[1.0, 0.0], [-1.0, 0.0]])
    v = enc.encode_vlad(np.array([[0.0, 0.0]]), cb)  # equidistant
    block0, block1 = v[:2], v[2:]
    assert np.linalg.norm(block0) > 0
    assert np.all(block1 == 0.0)


def test_codebook_file_roundtrips(tmp_path):
    # float64 arrays and the fit's traces: the constructor gets the same
    # codebook back, with its diagnostics
    rng = np.random.default_rng(10)
    x = rng.standard_normal((300, 4))
    gmm = enc.fit_gmm(x, 2, seed=10)
    enc.save_gmm(gmm, tmp_path / "g.gmm")
    back = enc.GmmCodebook(**io.load(tmp_path / "g.gmm", "gmm").arrays)
    for name in ("weights", "means", "variances"):
        assert np.array_equal(getattr(back, name), getattr(gmm, name))
    assert len(gmm.log_likelihoods) > 1
    assert back.log_likelihoods.tolist() == gmm.log_likelihoods

    km = enc.fit_kmeans(x, 3, seed=10)
    enc.save_kmeans(km, tmp_path / "k.kms")
    back_km = enc.KmeansCodebook(**io.load(tmp_path / "k.kms",
                                           "kmeans").arrays)
    assert np.array_equal(back_km.centers, km.centers)
    assert len(km.sse_trace) > 1
    assert back_km.sse_trace.tolist() == km.sse_trace


def test_codebooks_need_at_least_one_center():
    x = np.random.default_rng(0).standard_normal((50, 2))
    with pytest.raises(ValueError, match="at least one center"):
        enc.fit_kmeans(x, 0, seed=0)
    with pytest.raises(ValueError, match="at least one component"):
        enc.fit_gmm(x, 0, seed=0)


def test_gmm_requires_enough_samples():
    with pytest.raises(ValueError, match="10 samples"):
        enc.fit_gmm(np.zeros((5, 2)), 1, seed=0)


# ------------------------------------------- expanded distances vs tensors

def _tensor_log_posteriors(x, gmm):
    """Reference: log responsibilities from the (T, N, D) difference tensor,
    the form the encoders used before the expanded distances."""
    diff = x[:, None, :] - gmm.means[None, :, :]
    log_pdf = -0.5 * (np.sum(diff * diff / gmm.variances[None], axis=2)
                      + np.sum(np.log(2.0 * np.pi * gmm.variances), axis=1))
    joint = np.log(gmm.weights)[None, :] + log_pdf
    return joint - logsumexp(joint, axis=1, keepdims=True)


def _tensor_fisher(x, gmm):
    """Reference: one video's Fisher Vector through the tensor posteriors."""
    gamma = np.exp(_tensor_log_posteriors(x, gmm))
    diff = (x[:, None, :] - gmm.means[None]) / np.sqrt(gmm.variances)[None]
    tau_mu = np.einsum("tn,tnd->nd", gamma, diff)
    tau_mu /= len(x) * np.sqrt(gmm.weights)[:, None]
    tau_sigma = np.einsum("tn,tnd->nd", gamma, diff * diff - 1.0)
    tau_sigma /= len(x) * np.sqrt(2.0 * gmm.weights)[:, None]
    return np.concatenate([tau_mu.reshape(-1), tau_sigma.reshape(-1)])


def _tensor_nearest(x, centers):
    return np.argmin(np.sum((x[:, None, :] - centers[None]) ** 2, axis=2),
                     axis=1)


def _gmm_and_frames(case):
    rng = np.random.default_rng(20)
    if case == "fitted":
        x = rng.standard_normal((600, 6)) * [1.0, 2.0, 0.5, 1.0, 3.0, 1.0]
        return enc.fit_gmm(x, 4, seed=20), x[:200]
    # every frame near a mean but 1000 per dimension from the origin, so
    # |x|^2 exceeds |x - mu|^2 by about 1e6: the worst case for cancellation
    means = 1e3 + rng.standard_normal((4, 16))
    gmm = enc.GmmCodebook(weights=[0.1, 0.2, 0.3, 0.4], means=means,
                          variances=rng.uniform(0.5, 2.0, (4, 16)))
    x = means[rng.integers(0, 4, 200)] + 0.7 * rng.standard_normal((200, 16))
    return gmm, x


@pytest.mark.parametrize("case", ["fitted", "far-from-origin"])
def test_expanded_log_posteriors_match_tensor_form(case):
    gmm, x = _gmm_and_frames(case)
    ref = _tensor_log_posteriors(x, gmm)
    # the origins of encoding (the mixture mean) and of EM (the data mean)
    for origin in (gmm.weights @ gmm.means, x.mean(axis=0)):
        log_post, _ = enc._log_posteriors(enc._distances_to(x, origin), gmm)
        assert np.max(np.abs(log_post - ref)) <= 1e-12


@pytest.mark.parametrize("case", ["fitted", "far-from-origin"])
def test_expanded_fisher_vectors_match_tensor_form(case):
    gmm, x = _gmm_and_frames(case)
    offsets = np.array([0, 1, 40, 41, 130, 200])
    fv = enc.encode_fisher(x, gmm, offsets)
    ref = np.stack([_tensor_fisher(x[a:b], gmm)
                    for a, b in zip(offsets[:-1], offsets[1:])])
    assert np.max(np.abs(fv - ref)) <= 1e-12


def test_expanded_nearest_center_matches_tensor_form():
    rng = np.random.default_rng(21)
    centers = 1e3 + rng.standard_normal((8, 5))
    x = centers[rng.integers(0, 8, 500)] + 0.3 * rng.standard_normal((500, 5))
    dist = enc._distances_to(x, centers.mean(axis=0))(centers,
                                                      np.ones_like(centers))
    assert np.array_equal(np.argmin(dist, axis=1), _tensor_nearest(x, centers))


@pytest.mark.parametrize("max_iter", [1, 2, 100])
def test_kmeans_assignment_is_nearest_under_final_centers(max_iter):
    x = planted_clusters(22, [[0.0, 5.0], [5.0, 0.0], [-5.0, -5.0]],
                         per_cluster=100, scale=2.0)
    km = enc.fit_kmeans(x, 3, seed=22, max_iter=max_iter)
    assert len(km.sse_trace) <= max_iter
    assert np.array_equal(km.assignment, _tensor_nearest(x, km.centers))


# ------------------------------------------------ partitions vs per video

def _partition(seed, dim, bounds):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((bounds[-1], dim)), np.array(bounds)


def test_fisher_partition_matches_per_video_calls(monkeypatch):
    rng = np.random.default_rng(23)
    gmm = enc.fit_gmm(rng.standard_normal((400, 5)), 3, seed=23)
    x, offsets = _partition(24, 5, [0, 3, 4, 20, 26, 60])
    per_video = np.stack([enc.encode_fisher(x[a:b], gmm)
                          for a, b in zip(offsets[:-1], offsets[1:])])
    whole = enc.encode_fisher(x, gmm, offsets)
    # chunks of at most 10 rows: every video is split from its neighbours
    # and the 34-frame one is a chunk of its own
    monkeypatch.setattr(enc, "CHUNK_VALUES", 10 * 3 * 5)
    chunked = enc.encode_fisher(x, gmm, offsets)
    assert whole.shape == (5, 2 * 3 * 5)
    assert enc.encode_fisher(x[:0], gmm, [0]).shape == (0, 2 * 3 * 5)
    assert np.allclose(whole, per_video, rtol=0, atol=1e-13)
    assert np.allclose(chunked, whole, rtol=0, atol=1e-13)


def test_vlad_partition_matches_per_video_calls(monkeypatch):
    rng = np.random.default_rng(25)
    cb = enc.KmeansCodebook(centers=rng.standard_normal((4, 3)))
    x, offsets = _partition(26, 3, [0, 5, 7, 9, 30])
    x[5:7] = cb.centers[2]  # video 1: every frame on a center
    with pytest.warns(UserWarning, match="all-zero"):
        per_video = np.stack([enc.encode_vlad(x[a:b], cb)
                              for a, b in zip(offsets[:-1], offsets[1:])])
    with pytest.warns(UserWarning, match="1 all-zero"):
        whole = enc.encode_vlad(x, cb, offsets)
    monkeypatch.setattr(enc, "CHUNK_VALUES", 6 * 4 * 3)
    with pytest.warns(UserWarning, match="1 all-zero"):
        chunked = enc.encode_vlad(x, cb, offsets)
    assert np.all(whole[1] == 0.0)
    assert enc.encode_vlad(x[:0], cb, [0]).shape == (0, 4 * 3)
    assert np.array_equal(whole, per_video)
    assert np.array_equal(chunked, whole)


@pytest.mark.parametrize("offsets", [[0, 3, 3, 5], [1, 5], [0, 4]],
                         ids=["empty-video", "late-start", "short-end"])
def test_encoders_reject_bad_offsets(offsets):
    x = np.zeros((5, 2))
    gmm = enc.GmmCodebook(weights=[1.0], means=[[0.0, 0.0]],
                          variances=[[1.0, 1.0]])
    with pytest.raises(ValueError, match="offsets"):
        enc.encode_fisher(x, gmm, offsets)
    with pytest.raises(ValueError, match="offsets"):
        enc.encode_vlad(x, enc.KmeansCodebook(centers=[[0.0, 0.0]]), offsets)


# --------------------------------------------------------- log-sum-exp

@pytest.mark.parametrize("order", ["C", "F"])
def test_logsumexp_rows_bit_equal_to_scipy(order):
    """The numpy log-sum-exp of the E-step takes scipy's steps, so its bits
    are scipy's: rows of 1 to 64 columns, at small and large scales, with
    ties at the row max and elsewhere."""
    rng = np.random.default_rng(13)
    for n_cols in (1, 2, 3, 4, 7, 8, 9, 16, 33, 64):
        for scale in (0.1, 1.0, 30.0, 1000.0):
            a = scale * rng.standard_normal((300, n_cols))
            a[::3, -1] = a[::3].max(axis=1)         # a tie at the max
            a[1::5] = np.round(a[1::5])             # ties anywhere
            a[2::7] = a[2::7, :1]                   # every entry the max
            a = np.asarray(a, order=order)
            got = enc._logsumexp_rows(a)
            want = logsumexp(a, axis=1, keepdims=True)
            assert got.shape == want.shape == (300, 1)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
