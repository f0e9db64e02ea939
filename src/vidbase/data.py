"""Frame-feature data model, feature files, and synthetic generation."""

from dataclasses import dataclass, field

import numpy as np

from . import io
from .io import DataFormatError

SECOND_LABEL_PROB = 0.3  # chance that a synthetic video has a second label


@dataclass(eq=False)
class Partition:
    """The videos of one partition: all their frames in one (ΣF, D) float32
    matrix, video i's frames at rows offsets[i]:offsets[i + 1]. A
    descriptors file reads back as a partition of one-row videos."""

    video_ids: tuple
    frames: np.ndarray   # (ΣF, D) float32
    offsets: np.ndarray  # (V + 1,) int64, from 0 to ΣF
    labels: tuple        # per-video frozenset of label ids
    meta: dict = field(default_factory=dict)  # its file's header entries

    def __post_init__(self):
        self.video_ids = tuple(self.video_ids)
        self.frames = np.asarray(self.frames, dtype=np.float32)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.labels = tuple(frozenset(int(l) for l in labs)
                            for labs in self.labels)
        if self.frames.ndim != 2:
            raise ValueError("frames must be a (frames, dim) array")
        if (self.offsets.shape != (len(self.video_ids) + 1,)
                or self.offsets[0] != 0
                or self.offsets[-1] != self.frames.shape[0]):
            raise ValueError("offsets must run from 0 to the frame count, "
                             "one per video plus one")
        if len(self.labels) != len(self.video_ids):
            raise ValueError("one label set per video required")
        if np.any(np.diff(self.offsets) < 1):
            raise ValueError("every video needs at least one frame")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("values must be finite")
        if any(l < 0 for labs in self.labels for l in labs):
            raise ValueError("label ids must be non-negative")

    def __len__(self):
        return len(self.video_ids)

    @property
    def dim(self):
        return self.frames.shape[1]

    def videos(self):
        """Each video's frames, in order, as views of `frames`."""
        bounds = self.offsets.tolist()
        return (self.frames[a:b] for a, b in zip(bounds[:-1], bounds[1:]))

    def slice(self, start, stop):
        """The partition of videos start..stop-1."""
        first, last = self.offsets[start], self.offsets[stop]
        return Partition(self.video_ids[start:stop], self.frames[first:last],
                         self.offsets[start:stop + 1] - first,
                         self.labels[start:stop], self.meta)


def save_videos(path, kind, arrays, video_ids, labels, meta=None):
    """io.save with the video ids added to `meta`, and the label sets as
    two arrays: each video's label count, and the sorted labels in turn."""
    counts = np.array([len(labs) for labs in labels], dtype="<i8")
    flat = np.array([l for labs in labels for l in sorted(labs)], dtype="<i8")
    return io.save(path, kind, dict(arrays, label_counts=counts, labels=flat),
                   dict(meta or {}, video_ids=list(video_ids)))


def load_videos(path, kind):
    """The other arrays, the video ids, each video's label list and the
    other header entries of a container that save_videos wrote. Ids must be
    distinct strings, and label ids and counts non-negative integers, one
    count per id; otherwise a data error naming the file."""
    arrays, meta, _ = io.load(path, kind)
    ids = meta.pop("video_ids", None)
    counts, flat = (arrays.pop(name, np.zeros(1))  # float: rejected below
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
    bounds, flat = np.cumsum(counts).tolist(), flat.tolist()
    labels = [flat[a:b] for a, b in zip([0] + bounds, bounds)]
    return arrays, tuple(ids), labels, meta


def write_features(partition, path, meta=None):
    """Write a partition's float32 frames, offsets, label sets, video ids
    and `meta` as a features container; returns its sha256."""
    return save_videos(path, "features",
                       {"frames": np.asarray(partition.frames, dtype="<f4"),
                        "offsets": np.asarray(partition.offsets, dtype="<i8")},
                       partition.video_ids, partition.labels, meta)


def read_features(path):
    """The partition of a features container, with its header's other
    entries as `meta`."""
    arrays, video_ids, labels, meta = load_videos(path, "features")
    # copied out of the file's buffer, which is then freed: keeping it
    # raised the peak RSS of the stages by up to 5 MiB (glibc malloc)
    try:
        return Partition(video_ids, arrays["frames"].copy(),
                         arrays["offsets"].copy(), labels, meta)
    except (KeyError, ValueError) as exc:
        raise DataFormatError("%s: %s" % (path, exc)) from exc


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
    label_sets, chunks = [], []
    for i in range(n_videos):
        labels = {i % n_labels}
        if n_labels > 1 and rng.random() < SECOND_LABEL_PROB:
            extra = int(rng.integers(0, n_labels))
            labels.add(extra)
        n_frames = int(rng.integers(frames_min, frames_max + 1))
        label_list = sorted(labels)
        labs = np.array(label_list)[rng.integers(0, len(label_list),
                                                 size=n_frames)]
        frames = means[labs] + scale * rng.standard_normal((n_frames, dim))
        label_sets.append(labels)
        chunks.append(frames.astype(np.float32))
    offsets = np.zeros(n_videos + 1, dtype=np.int64)
    np.cumsum([len(c) for c in chunks], out=offsets[1:])
    return Partition(["v%06d" % i for i in range(n_videos)],
                     np.concatenate(chunks), offsets, label_sets)


def label_matrix(label_sets, n_labels):
    """Binary (N, L) matrix with row i set at the label ids of label_sets[i].
    An id outside the vocabulary is a data error."""
    out = np.zeros((len(label_sets), n_labels))
    for i, labs in enumerate(label_sets):
        for lab in labs:
            if not 0 <= lab < n_labels:
                raise ValueError("label id %d in row %d is outside the "
                                 "%d-label vocabulary" % (lab, i, n_labels))
            out[i, lab] = 1.0
    return out
