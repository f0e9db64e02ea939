"""PCA whitening, L2 normalization, 256-level scalar quantization, and
reconstruction back to the original activation space.

Every transform takes a vector or a whole (N, D) frame matrix, so a
partition is whitened, quantized and dequantized in one call on its
concatenated frames. A transform's pseudo-inverse is computed once, on the
first reconstruction.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import io

N_CODES = 256
EIG_EPS = 1e-8
# values quantized at once: the chunk's bisection temporaries stay in cache
QUANTIZE_ELEMENTS = 1 << 15


class RankError(Exception):
    """Requested output dimension exceeds the numerical rank of the sample."""

    def __init__(self, requested, effective_rank):
        self.requested = requested
        self.effective_rank = effective_rank
        super().__init__("requested d_out=%d but effective rank is %d"
                         % (requested, effective_rank))


@dataclass
class WhiteningTransform:
    mean: np.ndarray    # (D,)
    matrix: np.ndarray  # (d_out, D)

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.mean.shape != (self.matrix.shape[1],):
            raise ValueError("inconsistent transform shapes")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.matrix))):
            raise ValueError("transform must be finite")

    @property
    def dim(self):
        return self.matrix.shape[1]

    @cached_property
    def pinv(self):
        """Pseudo-inverse of `matrix`, (D, d_out), computed on first use."""
        return np.linalg.pinv(self.matrix)


@dataclass
class Quantizer:
    boundaries: np.ndarray      # (D, 255) strictly increasing cut points
    reconstruction: np.ndarray  # (D, 256) per-bin representative values

    def __post_init__(self):
        self.boundaries = np.asarray(self.boundaries, dtype=np.float64)
        self.reconstruction = np.asarray(self.reconstruction, dtype=np.float64)
        if self.boundaries.ndim != 2 or self.boundaries.shape[1] != N_CODES - 1:
            raise ValueError("boundaries must be (D, 255)")
        if self.reconstruction.shape != (self.boundaries.shape[0], N_CODES):
            raise ValueError("reconstruction must be (D, 256)")
        if not (np.all(np.isfinite(self.boundaries))
                and np.all(np.isfinite(self.reconstruction))):
            raise ValueError("quantizer must be finite")
        if np.any(np.diff(self.boundaries, axis=1) <= 0):
            raise ValueError("boundaries must be strictly increasing")

    @property
    def dim(self):
        return self.boundaries.shape[0]


def fit_whitening(frames, d_out, eps=EIG_EPS):
    """PCA whitening fit: eigendecomposition of the sample covariance,
    directions ordered by decreasing variance, scaled by 1/sqrt(lam + eps)."""
    frames = np.asarray(frames, dtype=np.float64)
    n, dim = frames.shape
    if d_out < 1 or d_out > dim:
        raise ValueError("d_out must be in [1, D]")
    if n < d_out + 1:
        raise ValueError("need at least d_out + 1 samples")

    mean = frames.mean(axis=0)
    centered = frames - mean
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    floor = max(eigvals[0], 0.0) * 1e-9
    rank = int(np.sum(eigvals > max(floor, 1e-15)))
    if d_out > rank:
        raise RankError(d_out, rank)

    scale = 1.0 / np.sqrt(eigvals[:d_out] + eps)
    matrix = scale[:, None] * eigvecs[:, :d_out].T
    return WhiteningTransform(mean=mean, matrix=matrix)


def apply_whitening(transform, x):
    """z = A(x - mu) of a vector or an (N, D) matrix, in float64."""
    # centering casts to float64 on the fly: no float64 copy of x
    return np.subtract(x, transform.mean, dtype=np.float64) @ transform.matrix.T


def unit_rows(z):
    """A vector, or each row of a matrix, scaled to unit L2 norm; a zero
    one stays zero (with a warning)."""
    norms = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        warnings.warn("zero vector; left unnormalized")
    return z / np.where(norms == 0.0, 1.0, norms)


def _strictly_increasing(b):
    """Nudge duplicated cut points up; duplicated bins become empty."""
    if np.all(b[1:] > b[:-1]):
        return b
    for i in range(1, len(b)):
        if b[i] <= b[i - 1]:
            b[i] = np.nextafter(b[i - 1], np.inf)
    return b


def _bin_representatives(padded, boundaries):
    """Per-bin sample means of a sorted column followed by one 0.0
    sentinel; empty bins fall back to the bin midpoint, always clipped into
    the bin's interval. Bin i holds the values in [b[i-1], b[i])."""
    n = len(padded) - 1
    starts = np.concatenate(
        ([0], np.searchsorted(padded[:n], boundaries, side="left")))
    counts = np.diff(starts, append=n)
    # a start of n (an empty trailing bin) indexes the sentinel, so every
    # non-empty bin sums exactly its own values
    sums = np.add.reduceat(padded, starts)
    lo = np.concatenate(([-np.inf], boundaries))
    hi = np.concatenate((boundaries, [np.inf]))
    mid = 0.5 * (lo + hi)
    mid[0] = boundaries[0]
    mid[-1] = boundaries[-1]
    rec = np.where(counts > 0, sums / np.maximum(counts, 1), mid)
    return np.clip(rec, lo, hi)


def fit_quantizer(values, refine_iterations=10):
    """Per-dimension 256-level Lloyd-Max quantizer: boundaries start at the
    j/256 quantiles with reconstruction value = in-bin sample mean, then a
    few Lloyd iterations (boundary = midpoint of adjacent representatives)
    sharpen the bins toward the distortion-optimal ones. On uniform data
    the quantile boundaries are already the fixed point. Degenerate
    dimensions collapse to one effective bin.

    Each column is sorted once, so a Lloyd iteration is 255 binary searches
    and one `np.add.reduceat`."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValueError("values must be a non-empty (N, D) sample")
    dim = values.shape[1]

    # the j/256 quantiles of a sorted column with np.quantile's "linear"
    # bits: values at lo and hi weighted by t (numpy's t is 1 when n = 1)
    n = values.shape[0]
    at = (n - 1) * (np.arange(1, N_CODES) / N_CODES)
    lo = np.floor(at).astype(np.intp)
    hi = np.minimum(lo + 1, n - 1)
    t = at - lo if n > 1 else np.ones_like(at)
    boundaries = np.empty((dim, N_CODES - 1), dtype=np.float64)
    reconstruction = np.empty((dim, N_CODES), dtype=np.float64)
    for j in range(dim):
        padded = np.append(np.sort(values[:, j]), 0.0)
        a, b = padded[lo], padded[hi]
        b = _strictly_increasing(np.where(t >= 0.5, b - (b - a) * (1 - t),
                                          a + (b - a) * t))
        rec = _bin_representatives(padded, b)
        for _ in range(refine_iterations):
            b = _strictly_increasing(0.5 * (rec[:-1] + rec[1:]))
            rec = _bin_representatives(padded, b)
        boundaries[j] = b
        reconstruction[j] = rec

    return Quantizer(boundaries=boundaries, reconstruction=reconstruction)


def quantize(quantizer, x):
    """Map each value to its bin index (uint8): the number of its column's
    boundaries <= it, as `np.searchsorted(b, v, side="right")` gives, found by
    an 8-step branch-free bisection over QUANTIZE_ELEMENTS values at a time.
    Step s adds s unless v < b[code + s - 1]: NaN, +inf go to 255, -inf to 0.
    x is a vector, an (N, D) matrix or a stack of them on leading axes."""
    x = np.asarray(x, dtype=np.float64)
    dim = quantizer.dim
    if x.shape[-1:] != (dim,):
        raise ValueError("dimension mismatch")
    batch = x.reshape(-1, dim)
    flat = quantizer.boundaries.ravel()
    base = np.arange(dim) * (N_CODES - 1)  # column j's boundaries in flat
    codes = np.empty(batch.shape, dtype=np.uint8)
    rows = max(1, QUANTIZE_ELEMENTS // max(dim, 1))
    for start in range(0, len(batch), rows):
        chunk = batch[start:start + rows]
        pos = np.repeat(base[None], len(chunk), axis=0)
        for step in (128, 64, 32, 16, 8, 4, 2, 1):
            pos += step * ~(chunk < flat[step - 1:].take(pos))
        np.subtract(pos, base, out=codes[start:start + rows], casting="unsafe")
    return codes.reshape(x.shape)


def dequantize(quantizer, codes):
    """Per-dimension reconstruction values for the given codes, gathered
    QUANTIZE_ELEMENTS values at a time so that the gather's index array
    stays chunk-sized."""
    codes = np.asarray(codes)
    dim = quantizer.dim
    if codes.shape[-1] != dim:
        raise ValueError("dimension mismatch")
    batch, dims = codes.reshape(-1, dim), np.arange(dim)
    out = np.empty(batch.shape)
    rows = max(1, QUANTIZE_ELEMENTS // max(dim, 1))
    for start in range(0, len(batch), rows):
        chunk = slice(start, start + rows)
        out[chunk] = quantizer.reconstruction[dims, batch[chunk]]
    return out.reshape(codes.shape)


def invert_whitening(transform, z):
    """x = A^+ z + mu (pseudo-inverse; equals A^T z + mu for orthonormal A)
    of a vector, an (N, d) matrix or a stack of them on leading axes."""
    return np.asarray(z, dtype=np.float64) @ transform.pinv.T + transform.mean


def save_transform(transform, path):
    """Write a transform's mean and matrix as float32; returns the sha256."""
    return io.save(path, "transform",
                   {"mean": transform.mean.astype("<f4"),
                    "matrix": transform.matrix.astype("<f4")})


def load_transform(path):
    """The transform that save_transform wrote, in float64, and the
    container's sha256."""
    container = io.load(path, "transform")
    try:
        return WhiteningTransform(**container.arrays), container.sha256
    except (TypeError, ValueError) as exc:
        raise io.DataFormatError("%s: %s" % (path, exc)) from exc


def save_quantizer(quantizer, path):
    """Write a quantizer's float64 arrays, which Quantizer(**io.load(path,
    "quantizer").arrays) gives back; returns the sha256."""
    return io.save(path, "quantizer",
                   {"boundaries": quantizer.boundaries,
                    "reconstruction": quantizer.reconstruction})
