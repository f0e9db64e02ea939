"""Mean, standard deviation and per-dimension Top-K descriptors of a video,
a stack of equal-length videos or a whole partition; descriptor files."""

from dataclasses import replace

import numpy as np

from . import preprocess
from .data import DataFormatError, read_partition, write_partition

DEFAULT_TOP_K = 5
STACK_ELEMENTS = 1 << 15  # float64 values in one stack of encode_stats


def aggregate_mean_std(frames):
    """Per-dimension mean and population (1/F) standard deviation over the
    frames of axis -2; leading axes are a stack of videos."""
    x = np.asarray(frames, dtype=np.float64)
    mean = x.mean(axis=-2)
    std = np.sqrt(np.mean((x - mean[..., None, :]) ** 2, axis=-2))
    return mean, std


def aggregate_topk(frames, k):
    """K largest values per dimension over the frames of axis -2, descending;
    when F < K the last slots repeat the dimension's minimum."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(frames, dtype=np.float64)
    *stack, n_frames, dim = x.shape
    ordered = -np.sort(-x, axis=-2)
    top = ordered[..., np.minimum(np.arange(k), n_frames - 1), :]
    # dim-major: K values per dimension
    return np.swapaxes(top, -1, -2).reshape(*stack, k * dim)


def descriptor_layout(dim, k):
    """((name, offset, length), ...) of the [mean; std; topk] descriptor of
    `dim`-dimensional frames."""
    return (("mean", 0, dim), ("std", dim, dim), ("topk", 2 * dim, k * dim))


def build_descriptor(frames, k=DEFAULT_TOP_K):
    """Descriptor values in descriptor_layout order of a video's (F, D)
    frames, or of each video of an (..., F, D) stack, bit for bit."""
    mean, std = aggregate_mean_std(frames)
    return np.concatenate([mean, std, aggregate_topk(frames, k)], axis=-1)


def encode_stats(frames, offsets, k, transform=None):
    """The (V, (2 + k) * D) descriptors of a partition's frames, inverted
    through `transform` first if given. A stack holds videos of one frame
    count, at most STACK_ELEMENTS values, so each gets its bits alone."""
    counts = np.diff(offsets)
    dim = frames.shape[1] if transform is None else transform.dim
    matrix = np.empty((len(counts), (2 + k) * dim))
    for n_frames in np.unique(counts).tolist():
        videos = np.flatnonzero(counts == n_frames)
        step = max(1, STACK_ELEMENTS // (n_frames * dim))
        for start in range(0, len(videos), step):
            rows = videos[start:start + step]
            stack = frames[offsets[rows, None] + np.arange(n_frames)]
            if transform is not None:
                stack = preprocess.invert_whitening(transform, stack)
            matrix[rows] = build_descriptor(stack, k=k)
    return matrix


def fit_global_normalizer(descriptors):
    """Whitening transform over descriptor space, fit on a (V, d) matrix
    (center -> whiten; apply with apply_whitening(..., l2_normalize=True))
    onto its rank, below d when reduced frames' means span fewer dims."""
    sample = np.asarray(descriptors, dtype=np.float64)
    try:
        return preprocess.fit_whitening(sample, sample.shape[1])
    except preprocess.RankError as exc:
        return preprocess.fit_whitening(sample, exc.effective_rank)


def write_descriptors(path, partition, matrix, layout, meta=None):
    """Write the (V, d) descriptor matrix of a partition's videos as the
    float32 frames of one-row videos, with their ids and labels, the layout
    and `meta`; returns its sha256. A matrix not of one finite row per
    video is a data error naming the file, and no file is written."""
    try:
        rows = replace(partition, frames=matrix,
                       offsets=np.arange(len(partition) + 1))
    except ValueError as exc:
        raise DataFormatError("%s: %s" % (path, exc)) from exc
    return write_partition(path, "descriptors", rows,
                           dict(meta or {}, layout=[list(e) for e in layout]))


def read_descriptors(path):
    """The partition of a descriptors container: video i is row i of
    `frames`, and `meta` holds the layout and the header's other entries."""
    partition = read_partition(path, "descriptors")
    if len(partition.frames) != len(partition):
        raise DataFormatError("%s: the matrix needs one row per video" % path)
    return partition
