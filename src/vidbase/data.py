"""Frame-feature data model, binary file format, and synthetic generation."""

import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"YT8MDESK"
FORMAT_VERSION = 1


class DataFormatError(Exception):
    """Raised when a feature file is malformed or inconsistent."""


@dataclass(frozen=True)
class LabelVocabulary:
    """Ordered set of (label_id, name) pairs, ids dense in [0, L)."""

    labels: tuple

    def __post_init__(self):
        ids = [lid for lid, _ in self.labels]
        names = [name for _, name in self.labels]
        if len(ids) < 1:
            raise ValueError("vocabulary must contain at least one label")
        if ids != list(range(len(ids))):
            raise ValueError("label ids must be unique and dense in [0, L)")
        if len(set(names)) != len(names):
            raise ValueError("label names must be unique")

    @property
    def size(self):
        return len(self.labels)

    @classmethod
    def trivial(cls, n_labels):
        return cls(tuple((i, "label_%04d" % i) for i in range(n_labels)))


@dataclass(eq=False)
class Partition:
    """The videos of one partition: all their frames in one (ΣF, D) float32
    matrix, video i's frames at rows offsets[i]:offsets[i + 1]."""

    video_ids: tuple
    frames: np.ndarray   # (ΣF, D) float32
    offsets: np.ndarray  # (V + 1,) int64, from 0 to ΣF
    labels: tuple        # per-video frozenset of label ids

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
            raise ValueError("frame features must be finite")
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
                         self.labels[start:stop])


@dataclass
class DatasetManifest:
    partition: str
    example_count: int
    feature_dim: int
    paths: list
    extra: dict = field(default_factory=dict)

    PARTITIONS = ("train", "validate", "test")

    def __post_init__(self):
        if self.partition not in self.PARTITIONS:
            raise ValueError("unknown partition %r" % self.partition)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("partition=%s\n" % self.partition)
            fh.write("example_count=%d\n" % self.example_count)
            fh.write("feature_dim=%d\n" % self.feature_dim)
            fh.write("paths=%s\n" % ",".join(str(p) for p in self.paths))
            for key in sorted(self.extra):
                fh.write("%s=%s\n" % (key, self.extra[key]))

    @classmethod
    def read(cls, path):
        kv = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                key, _, value = line.partition("=")
                kv[key] = value
        extra = {k: v for k, v in kv.items()
                 if k not in ("partition", "example_count", "feature_dim", "paths")}
        return cls(
            partition=kv["partition"],
            example_count=int(kv["example_count"]),
            feature_dim=int(kv["feature_dim"]),
            paths=[p for p in kv.get("paths", "").split(",") if p],
            extra=extra,
        )


def write_features(partition, path, name="train"):
    """Serialize a partition to the binary feature format; returns a
    manifest, which names the file without its directory. Each video is a
    header (id, frame count, labels) followed by its frames."""
    frames = np.ascontiguousarray(partition.frames, dtype="<f4")
    bounds = partition.offsets.tolist()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIQ", FORMAT_VERSION, partition.dim,
                             len(partition)))
        for i, (vid, labs) in enumerate(zip(partition.video_ids,
                                            partition.labels)):
            vid = vid.encode("utf-8")
            labs = sorted(labs)
            fh.write(struct.pack("<H%dsIH%dI" % (len(vid), len(labs)),
                                 len(vid), vid, bounds[i + 1] - bounds[i],
                                 len(labs), *labs))
            fh.write(frames[bounds[i]:bounds[i + 1]])

    return DatasetManifest(partition=name, example_count=len(partition),
                           feature_dim=partition.dim,
                           paths=[os.path.basename(path)])


def read_features(path):
    """Read back a partition written by :func:`write_features`: the video
    headers are parsed in turn and their frames gathered into one matrix."""
    with open(path, "rb") as fh:
        data = fh.read()

    if data[:8] != MAGIC:
        raise DataFormatError("bad magic in %s" % path)
    if len(data) < 8 + 16:
        raise DataFormatError("truncated header in %s" % path)
    version, dim, count = struct.unpack_from("<IIQ", data, 8)
    if version != FORMAT_VERSION:
        raise DataFormatError("unsupported format version %d" % version)

    video_ids, labels, starts, counts = [], [], [], []
    off = 24
    try:
        for _ in range(count):
            (vid_len,) = struct.unpack_from("<H", data, off)
            off += 2
            try:
                video_ids.append(data[off:off + vid_len].decode("utf-8"))
            except UnicodeDecodeError:
                raise DataFormatError("%s: the id of video %d is not UTF-8"
                                      % (path, len(video_ids))) from None
            off += vid_len
            n_frames, n_labels = struct.unpack_from("<IH", data, off)
            off += 6
            labels.append(struct.unpack_from("<%dI" % n_labels, data, off))
            off += 4 * n_labels
            starts.append(off)
            counts.append(n_frames)
            off += 4 * n_frames * dim
    except struct.error as exc:
        raise DataFormatError("truncated file %s" % path) from exc
    if off > len(data):
        raise DataFormatError("truncated feature payload in %s" % path)
    if off < len(data):
        raise DataFormatError("%d trailing bytes in %s"
                              % (len(data) - off, path))

    frames = np.concatenate(
        [np.empty(0, dtype=np.float32)]
        + [np.frombuffer(data, dtype="<f4", count=n * dim, offset=start)
           for start, n in zip(starts, counts)])
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    try:
        return Partition(video_ids, frames.reshape(offsets[-1], dim), offsets,
                         labels)
    except ValueError as exc:
        raise DataFormatError("%s: %s" % (path, exc)) from exc


@dataclass(frozen=True)
class ClusterSpec:
    """Per-label Gaussian parameters driving the synthetic generator."""

    means: np.ndarray   # (L, D)
    scales: np.ndarray  # (L,) positive

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.float64))
        if self.means.ndim != 2:
            raise ValueError("means must be (L, D)")
        if self.scales.shape != (self.means.shape[0],):
            raise ValueError("scales must be (L,)")
        if np.any(self.scales <= 0):
            raise ValueError("cluster scales must be positive")

    @classmethod
    def separated(cls, seed, n_labels, dim, separation=5.0, scale=1.0):
        """Random unit-direction means pushed `separation` apart."""
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC1]))
        dirs = rng.standard_normal((n_labels, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return cls(means=dirs * separation,
                   scales=np.full(n_labels, float(scale)))


def generate_synthetic(seed, n_labels, n_videos, dim, cluster_spec,
                       frames_min=5, frames_max=30, second_label_prob=0.3):
    """Deterministic synthetic partition of label-conditioned Gaussian frames.

    Video i always carries label (i mod L), so every label has positives
    whenever n_videos >= n_labels; a second label is added with probability
    `second_label_prob`.
    """
    if n_labels < 1 or n_videos < 1 or dim < 1:
        raise ValueError("n_labels, n_videos, dim must all be >= 1")
    if cluster_spec.means.shape != (n_labels, dim):
        raise ValueError("cluster_spec shape mismatch")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    label_sets, chunks = [], []
    for i in range(n_videos):
        labels = {i % n_labels}
        if n_labels > 1 and rng.random() < second_label_prob:
            extra = int(rng.integers(0, n_labels))
            labels.add(extra)
        n_frames = int(rng.integers(frames_min, frames_max + 1))
        label_list = sorted(labels)
        labs = np.array(label_list)[rng.integers(0, len(label_list),
                                                 size=n_frames)]
        frames = (cluster_spec.means[labs]
                  + cluster_spec.scales[labs, None]
                  * rng.standard_normal((n_frames, dim)))
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
