"""Fixed-length video descriptors from frame features: mean, standard
deviation, and per-dimension Top-K ordinal statistics."""

import struct

import numpy as np

from .preprocess import fit_whitening

AGG_MAGIC = b"YT8MAGG0"

DEFAULT_TOP_K = 5


def aggregate_mean_std(frames):
    """Per-dimension mean and population (1/F) standard deviation."""
    x = np.asarray(frames, dtype=np.float64)
    mean = x.mean(axis=0)
    std = np.sqrt(np.mean((x - mean) ** 2, axis=0))
    return mean, std


def aggregate_topk(frames, k):
    """K largest values per dimension, descending; when F < K the missing
    slots are padded with that dimension's minimum observed value."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(frames, dtype=np.float64)
    n_frames, dim = x.shape
    ordered = -np.sort(-x, axis=0)
    if n_frames >= k:
        top = ordered[:k]
    else:
        pad = np.repeat(ordered[-1:], k - n_frames, axis=0)
        top = np.concatenate([ordered, pad], axis=0)
    return top.T.reshape(k * dim)  # dim-major: K values per dimension


def descriptor_layout(dim, k):
    """((name, offset, length), ...) of the [mean; std; topk] descriptor of
    `dim`-dimensional frames."""
    return (("mean", 0, dim), ("std", dim, dim), ("topk", 2 * dim, k * dim))


def build_descriptor(frames, k=DEFAULT_TOP_K):
    """One video's descriptor values, in descriptor_layout order."""
    mean, std = aggregate_mean_std(frames)
    return np.concatenate([mean, std, aggregate_topk(frames, k)])


def fit_global_normalizer(descriptors):
    """Whitening transform over descriptor space, fit on a (V, d) matrix
    (center -> whiten; apply with apply_whitening(..., l2_normalize=True))."""
    sample = np.asarray(descriptors, dtype=np.float64)
    return fit_whitening(sample, sample.shape[1])


def write_descriptors(path, video_ids, matrix, layout):
    """Descriptor file: magic, dim, layout table, then per-video id + values."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(AGG_MAGIC)
        fh.write(struct.pack("<IQH", matrix.shape[1], matrix.shape[0], len(layout)))
        for name, off, length in layout:
            tag = name.encode("utf-8")
            fh.write(struct.pack("<H", len(tag)))
            fh.write(tag)
            fh.write(struct.pack("<II", off, length))
        for vid, row in zip(video_ids, matrix):
            v = vid.encode("utf-8")
            fh.write(struct.pack("<H", len(v)))
            fh.write(v)
            fh.write(np.asarray(row, dtype="<f4").tobytes())


def read_descriptors(path):
    """Read a descriptor file back as (video ids, (V, d) float64 matrix,
    layout). A file that is cut short or longer than its header says is a
    ValueError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != AGG_MAGIC:
        raise ValueError("bad magic in %s" % path)
    truncated = "truncated descriptor file %s" % path
    try:
        dim, count, n_layout = struct.unpack_from("<IQH", data, 8)
        off = 8 + 14
        layout = []
        for _ in range(n_layout):
            (tag_len,) = struct.unpack_from("<H", data, off)
            off += 2
            name = data[off:off + tag_len].decode("utf-8")
            off += tag_len
            comp_off, comp_len = struct.unpack_from("<II", data, off)
            off += 8
            layout.append((name, comp_off, comp_len))
        # every row holds at least its id length and its values
        if count * (2 + 4 * dim) > len(data) - off:
            raise ValueError(truncated)
        video_ids = []
        rows = np.empty((count, dim), dtype=np.float64)
        for i in range(count):
            (vid_len,) = struct.unpack_from("<H", data, off)
            off += 2
            video_ids.append(data[off:off + vid_len].decode("utf-8"))
            off += vid_len
            if off + 4 * dim > len(data):
                raise ValueError(truncated)
            rows[i] = np.frombuffer(data, dtype="<f4", count=dim, offset=off)
            off += 4 * dim
    except struct.error as exc:
        raise ValueError(truncated) from exc
    if off != len(data):
        raise ValueError("%d trailing bytes in %s" % (len(data) - off, path))
    return video_ids, rows, tuple(layout)
