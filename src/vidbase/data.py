"""Frame-feature data model, feature files, and synthetic generation."""

from dataclasses import dataclass, field

import numpy as np

from . import io
from .io import DataFormatError

SECOND_LABEL_PROB = 0.3  # chance that a synthetic video has a second label


@dataclass(eq=False)
class Partition:
    """The videos of one partition: all their frames in one (ΣF, D) float32
    matrix, video i's frames at rows offsets[i]:offsets[i + 1], and all
    their label ids in one int64 array, video i's (ascending) at
    labels[label_offsets[i]:label_offsets[i + 1]]. A features file holds
    one, and a descriptors file one whose videos have one row each."""

    video_ids: tuple
    frames: np.ndarray         # (ΣF, D) float32
    offsets: np.ndarray        # (V + 1,) int64, from 0 to ΣF
    labels: np.ndarray         # (ΣG,) int64 label ids
    label_offsets: np.ndarray  # (V + 1,) int64, from 0 to ΣG
    meta: dict = field(default_factory=dict)  # its file's header entries

    def __post_init__(self):
        self.video_ids = tuple(self.video_ids)
        self.frames = np.asarray(self.frames, dtype=np.float32)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.label_offsets = np.asarray(self.label_offsets, dtype=np.int64)
        if self.frames.ndim != 2:
            raise ValueError("frames must be a (frames, dim) array")
        for name, bounds, end, what in (
                ("offsets", self.offsets, self.frames.shape[0], "frame"),
                ("label_offsets", self.label_offsets, len(self.labels),
                 "label")):
            if (bounds.shape != (len(self.video_ids) + 1,) or bounds[0] != 0
                    or bounds[-1] != end or np.any(np.diff(bounds) < 0)):
                raise ValueError("%s must run from 0 to the %s count, one "
                                 "per video plus one" % (name, what))
        if np.any(np.diff(self.offsets) < 1):
            raise ValueError("every video needs at least one frame")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("values must be finite")
        if self.labels.ndim != 1 or np.any(self.labels < 0):
            raise ValueError("label ids must be non-negative")

    def __len__(self):
        return len(self.video_ids)

    @property
    def dim(self):
        return self.frames.shape[1]

    def slice(self, start, stop):
        """The partition of videos start..stop-1."""
        first, last = self.offsets[start], self.offsets[stop]
        lo, hi = self.label_offsets[start], self.label_offsets[stop]
        return Partition(self.video_ids[start:stop], self.frames[first:last],
                         self.offsets[start:stop + 1] - first,
                         self.labels[lo:hi],
                         self.label_offsets[start:stop + 1] - lo, self.meta)


def write_partition(path, kind, partition, meta=None):
    """Write a partition as a container of `kind`: its float32 frames,
    int64 frame offsets, each video's label count and the label ids in
    turn, with its video ids added to `meta`; returns its sha256."""
    return io.save(path, kind, {
        "frames": np.asarray(partition.frames, dtype="<f4"),
        "offsets": np.asarray(partition.offsets, dtype="<i8"),
        "label_counts": np.diff(partition.label_offsets).astype("<i8"),
        "labels": partition.labels.astype("<i8")},
        dict(meta or {}, video_ids=list(partition.video_ids)))


def read_partition(path, kind):
    """The partition of a `kind` container that write_partition wrote, with
    its header's other entries as `meta`. Distinct string ids, non-negative
    integer label counts (one per id) and ids, each video's strictly
    increasing, and a valid Partition, or a data error naming the file."""
    arrays, meta, _ = io.load(path, kind)
    ids = meta.pop("video_ids", None)
    counts, flat = (arrays.get(name, np.zeros(1))  # float: rejected below
                    for name in ("label_counts", "labels"))
    if not (isinstance(ids, list) and all(isinstance(v, str) for v in ids)):
        raise DataFormatError("%s: the header needs string video ids" % path)
    if len(set(ids)) < len(ids):
        twice = next(v for i, v in enumerate(ids) if v in ids[:i])
        raise DataFormatError("%s: video %s is listed twice" % (path, twice))
    if not (counts.dtype.kind == flat.dtype.kind == "i" and flat.ndim == 1
            and counts.shape == (len(ids),) and counts.sum() == len(flat)
            and min(counts.min(initial=0), flat.min(initial=0)) >= 0):
        raise DataFormatError("%s: label counts and label ids must be "
                              "non-negative integers, a count per video" % path)
    owner = np.repeat(np.arange(len(ids)), counts)  # each label's video
    falls = np.flatnonzero((np.diff(flat) <= 0) & (np.diff(owner) == 0))
    if len(falls):
        raise DataFormatError("%s: the label ids of video %s must be strictly "
                              "increasing" % (path, ids[owner[falls[0]]]))
    # copied out of the file's buffer, which is then freed: keeping it
    # raised the peak RSS of the stages by up to 5 MiB (glibc malloc)
    try:
        return Partition(ids, arrays["frames"].copy(),
                         arrays["offsets"].copy(), flat.copy(),
                         np.concatenate(([0], np.cumsum(counts))), meta)
    except (KeyError, ValueError) as exc:
        raise DataFormatError("%s: %s" % (path, exc)) from exc


def write_features(partition, path, meta=None):
    """write_partition of a features container."""
    return write_partition(path, "features", partition, meta)


def read_features(path):
    """read_partition of a features container."""
    return read_partition(path, "features")


def generate_synthetic(seed, n_labels, n_videos, dim, separation=5.0,
                       scale=1.0, frames_min=5, frames_max=30):
    """Deterministic synthetic partition of label-conditioned Gaussian frames:
    label l's frames have standard deviation `scale` around a random unit
    direction times `separation`.

    Video i always carries label (i mod L), so every label has positives
    whenever n_videos >= n_labels; a second label is added with probability
    SECOND_LABEL_PROB.
    """
    if n_labels < 1 or n_videos < 1 or dim < 1:
        raise ValueError("n_labels, n_videos, dim must all be >= 1")
    if not scale > 0:
        raise ValueError("the cluster scale must be positive")
    dirs = np.random.default_rng(np.random.SeedSequence(
        [int(seed), 0xC1])).standard_normal((n_labels, dim))
    means = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * separation

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    labels, label_offsets, chunks = [], [0], []
    for i in range(n_videos):
        video_labels = [i % n_labels]
        if n_labels > 1 and rng.random() < SECOND_LABEL_PROB:
            extra = int(rng.integers(0, n_labels))
            video_labels = sorted({i % n_labels, extra})
        n_frames = int(rng.integers(frames_min, frames_max + 1))
        labs = np.array(video_labels)[rng.integers(0, len(video_labels),
                                                   size=n_frames)]
        frames = means[labs] + scale * rng.standard_normal((n_frames, dim))
        labels += video_labels
        label_offsets.append(len(labels))
        chunks.append(frames.astype(np.float32))
    return Partition(["v%06d" % i for i in range(n_videos)],
                     np.concatenate(chunks),
                     np.cumsum([0] + [len(c) for c in chunks]), labels,
                     label_offsets)


def label_matrix(partition, n_labels):
    """(V, n_labels) bool matrix with row i true at the label ids of the
    partition's video i. An id outside the vocabulary is a data error."""
    rows = np.repeat(np.arange(len(partition)),
                     np.diff(partition.label_offsets))
    outside = np.flatnonzero(partition.labels >= n_labels)
    if len(outside):
        raise ValueError("label id %d of video %s is outside the %d-label "
                         "vocabulary" % (partition.labels[outside[0]],
                                         partition.video_ids[rows[outside[0]]],
                                         n_labels))
    out = np.zeros((len(partition), n_labels), dtype=bool)
    out[rows, partition.labels] = True
    return out
