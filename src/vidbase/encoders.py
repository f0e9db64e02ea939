"""Fisher Vector and VLAD encodings of a partition's videos, with the
diagonal-covariance GMM (EM) and k-means codebook training they require."""

import bisect
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import io

VAR_FLOOR_FRAC = 1e-4
# the encoders take a partition in chunks of whole videos holding at most
# this many float64 values of (frames, N, D): 32 MiB
CHUNK_VALUES = 1 << 22


@dataclass
class GmmCodebook:
    weights: np.ndarray    # (N,) sum to 1
    means: np.ndarray      # (N, D)
    variances: np.ndarray  # (N, D) diagonal covariance
    log_likelihoods: list = field(default_factory=list, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if np.any(self.weights <= 0) or np.any(self.variances <= 0):
            raise ValueError("weights and variances must be positive")

    @property
    def n_components(self):
        return self.weights.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


@dataclass
class KmeansCodebook:
    centers: np.ndarray  # (k, D)
    sse_trace: list = field(default_factory=list, compare=False)
    # nearest-center index of each fitted row under the final centers
    assignment: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("centers must be a non-empty (k, D) array")
        if not np.all(np.isfinite(self.centers)):
            raise ValueError("centers must be finite")

    @property
    def dim(self):
        return self.centers.shape[1]


def _distances_to(x, origin):
    """dist(means, inv_var) -> (T, N) sum_d (x_td - mu_nd)^2 inv_var_nd, as
    x^2.inv_var - 2 x.(mu inv_var) + mu^2.inv_var with matmuls, not a
    (T, N, D) tensor, after moving x and mu to `origin`: the terms lose
    digits where |x - origin| >> |x - mu|. Rounding below 0 is clipped."""
    x = x - origin
    x_sq = x * x

    def dist(means, inv_var):
        means = means - origin
        scaled = means * inv_var
        out = x_sq @ inv_var.T - 2.0 * (x @ scaled.T)
        out += np.sum(means * scaled, axis=1)
        return np.maximum(out, 0.0, out=out)
    return dist


def _logsumexp_rows(a):
    """(T, 1) log sum_n e^a_tn in the steps, and so the bits, of scipy's
    logsumexp: log1p(s / m) + log(m) + max, m the entries at the max."""
    a_max = a.max(axis=1, keepdims=True)
    at_max = a == a_max
    m = at_max.sum(axis=1, keepdims=True, dtype=a.dtype)
    s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return np.log1p(s) + np.log(m) + a_max


def _log_posteriors(dist, gmm):
    """Log responsibilities (T, N), computed with max-subtraction, and the
    per-frame log-likelihoods (T,) of the frames of `dist` (_distances_to)."""
    log_pdf = -0.5 * (dist(gmm.means, 1.0 / gmm.variances)
                      + np.sum(np.log(2.0 * np.pi * gmm.variances), axis=1))
    joint = np.log(gmm.weights)[None, :] + log_pdf     # (T, N)
    norm = _logsumexp_rows(joint)
    return joint - norm, norm[:, 0]


def gmm_posteriors(x, gmm):
    """Per-frame component posteriors gamma_i(x_t), rows summing to 1."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    log_post, _ = _log_posteriors(_distances_to(x, gmm.weights @ gmm.means),
                                  gmm)
    return np.exp(log_post)


def fit_kmeans(frames, k, seed, max_iter=100):
    """Lloyd's algorithm from k-means++ seeding; empty clusters are
    re-seeded from the farthest point. Stops on assignment fixpoint. The
    codebook carries the assignment under its final centers."""
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[0]
    if k < 1:
        raise ValueError("k-means needs at least one center")
    if n < k:
        raise ValueError("need at least k samples")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x4B4D]))

    # k-means++ seeding
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i] = x[rng.integers(n)]
        else:
            centers[i] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))

    dist_to = _distances_to(x, x.mean(axis=0))
    unit = np.ones_like(centers)
    assign = np.full(n, -1)
    sse_trace = []
    for _ in range(max_iter):
        dist = dist_to(centers, unit)
        new_assign = np.argmin(dist, axis=1)  # the lowest index on ties
        sq_err = dist.min(axis=1)
        sse_trace.append(float(sq_err.sum()))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for i in range(k):
            members = x[assign == i]
            if len(members) == 0:
                centers[i] = x[int(np.argmax(sq_err))]
            else:
                centers[i] = members.mean(axis=0)
    else:
        # max_iter ran out after the centers moved: assign under the new ones
        assign = np.argmin(dist_to(centers, unit), axis=1)
    return KmeansCodebook(centers=centers, sse_trace=sse_trace,
                          assignment=assign)


def fit_gmm(frames, n_components, seed, max_iter=100, rel_tol=1e-6):
    """EM for a diagonal-covariance GMM, initialized from k-means. The
    per-frame average log-likelihood is recorded each iteration."""
    x = np.asarray(frames, dtype=np.float64)
    n, dim = x.shape
    if n_components < 1:
        raise ValueError("a GMM needs at least one component")
    if n < 10 * n_components:
        raise ValueError("need at least 10 samples per component")

    global_var = x.var(axis=0)
    var_floor = np.maximum(VAR_FLOOR_FRAC * global_var, 1e-12)
    dist_to = _distances_to(x, x.mean(axis=0))
    x_sq = x * x

    def init(seed_offset):
        km = fit_kmeans(x, n_components, seed=int(seed) + seed_offset)
        assign = km.assignment
        weights = np.maximum(np.bincount(assign, minlength=n_components), 1)
        weights = weights / weights.sum()
        means = km.centers.copy()
        variances = np.empty((n_components, dim))
        for i in range(n_components):
            members = x[assign == i]
            if len(members) < 2:
                variances[i] = global_var
            else:
                variances[i] = members.var(axis=0)
        variances = np.maximum(variances, var_floor)
        return GmmCodebook(weights=weights, means=means, variances=variances)

    gmm = init(0)
    reseeded = False
    trace = []
    prev_ll = -np.inf
    it = 0
    while it < max_iter:
        log_post, log_norm = _log_posteriors(dist_to, gmm)
        ll = float(log_norm.mean())
        trace.append(ll)
        post = np.exp(log_post)                   # (n, N)
        counts = post.sum(axis=0)                 # (N,)
        if np.any(counts < 1e-10):
            if reseeded:
                warnings.warn("empty GMM component persisted after reseed")
                break
            reseeded = True
            gmm = init(1)
            trace = []
            prev_ll = -np.inf
            it = 0
            continue
        weights = counts / n
        means = (post.T @ x) / counts[:, None]
        sq = (post.T @ x_sq) / counts[:, None]
        variances = np.maximum(sq - means ** 2, var_floor)
        gmm = GmmCodebook(weights=weights, means=means, variances=variances)
        if np.isfinite(prev_ll) and ll - prev_ll < rel_tol * max(abs(prev_ll), 1.0):
            break
        prev_ll = ll
        it += 1
    gmm.log_likelihoods = trace
    return gmm


def _video_chunks(frames, offsets, dim, row_values):
    """The frames as a 2-D array, the video bounds (`offsets`, or one video
    of every frame when None) and (first, stop) ranges of whole videos of at
    most CHUNK_VALUES values at `row_values` a frame, or of one video."""
    frames = np.atleast_2d(np.asarray(frames))
    bounds = [0, len(frames)] if offsets is None else [int(o) for o in offsets]
    if frames.shape[1] != dim:
        raise ValueError("dimension mismatch")
    if (bounds[0] != 0 or bounds[-1] != len(frames)
            or any(b <= a for a, b in zip(bounds, bounds[1:]))):
        raise ValueError("offsets must rise from 0 to the frame count")
    rows, chunks, first = max(1, CHUNK_VALUES // row_values), [], 0
    while first < len(bounds) - 1:
        stop = bisect.bisect_right(bounds, bounds[first] + rows) - 1
        chunks.append((first, max(stop, first + 1)))
        first = chunks[-1][1]
    return frames, bounds, chunks


def encode_fisher(frames, gmm, offsets=None):
    """Fisher Vectors: normalized log-likelihood gradients w.r.t. GMM means
    and standard deviations, concatenated as [mu blocks; sigma blocks], of
    dimension 2*N*D. Video i is rows offsets[i]:offsets[i + 1] of `frames`
    and row i of the result; without offsets the frames are one video and
    its vector is returned. Posteriors and normalized differences are taken
    once per chunk of videos, the gradient sums per video on views."""
    half = gmm.n_components * gmm.dim
    frames, bounds, chunks = _video_chunks(frames, offsets, gmm.dim, half)
    sigma = np.sqrt(gmm.variances)                  # (N, D)
    mu_scale = np.sqrt(gmm.weights)[:, None]
    sigma_scale = np.sqrt(2.0 * gmm.weights)[:, None]
    out = np.empty((len(bounds) - 1, 2 * half))
    for first, stop in chunks:
        start = bounds[first]
        x = np.asarray(frames[start:bounds[stop]], dtype=np.float64)
        gamma = gmm_posteriors(x, gmm)              # (T, N)
        diff = x[:, None, :] - gmm.means[None]      # (T, N, D)
        diff /= sigma
        for i in range(first, stop):
            lo, hi = bounds[i] - start, bounds[i + 1] - start
            g, d = gamma[lo:hi], diff[lo:hi]
            tau_mu = np.einsum("tn,tnd->nd", g, d)
            tau_mu /= (hi - lo) * mu_scale
            tau_sigma = np.einsum("tn,tnd->nd", g, d * d - 1.0)
            tau_sigma /= (hi - lo) * sigma_scale
            out[i] = np.concatenate([tau_mu.reshape(-1), tau_sigma.reshape(-1)])
    return out if offsets is not None else out[0]


def encode_vlad(frames, codebook, offsets=None):
    """VLAD: per-center residual accumulation with intra (per-block) and
    global L2 normalization, of dimension k*D, for videos given as in
    `encode_fisher`. Zero blocks stay zero; an all-zero encoding is
    returned as-is with a warning."""
    centers = codebook.centers
    frames, bounds, chunks = _video_chunks(frames, offsets, codebook.dim,
                                           centers.size)
    acc = np.zeros((len(bounds) - 1,) + centers.shape)  # (V, k, D)
    for first, stop in chunks:
        x = np.asarray(frames[bounds[first]:bounds[stop]], dtype=np.float64)
        dist = _distances_to(x, centers.mean(axis=0))
        assign = np.argmin(dist(centers, np.ones_like(centers)), axis=1)
        video = np.repeat(np.arange(first, stop),
                          np.diff(bounds[first:stop + 1]))
        np.add.at(acc, (video, assign), x - centers[assign])

    norms = np.linalg.norm(acc, axis=2)
    nonzero = norms > 0.0
    acc[nonzero] /= norms[nonzero, None]
    flat = acc.reshape(len(acc), centers.size)
    total = np.linalg.norm(flat, axis=1)
    zero = total == 0.0
    if zero.any():
        warnings.warn("%d all-zero VLAD encoding(s) (every frame equals a "
                      "center)" % zero.sum())
    flat[~zero] /= total[~zero, None]
    return flat if offsets is not None else flat[0]


def save_gmm(gmm, path):
    """Write a GMM's float64 arrays and log-likelihood trace, which
    GmmCodebook(**io.load(path, "gmm").arrays) gives back; returns the
    sha256."""
    return io.save(path, "gmm", {
        "weights": gmm.weights, "means": gmm.means, "variances": gmm.variances,
        "log_likelihoods": np.asarray(gmm.log_likelihoods, dtype=np.float64)})


def save_kmeans(codebook, path):
    """Write a k-means codebook's centers and SSE trace, as save_gmm."""
    return io.save(path, "kmeans", {
        "centers": codebook.centers,
        "sse_trace": np.asarray(codebook.sse_trace, dtype=np.float64)})
