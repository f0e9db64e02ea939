"""Frame-feature data model, binary file format, and synthetic generation."""

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


@dataclass
class FrameFeatureSet:
    """Per-video sequence of D-dimensional frame vectors."""

    video_id: str
    frames: np.ndarray  # (F, D) float32

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1:
            raise ValueError("frames must be a non-empty (F, D) array")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError("frame features must be finite")

    @property
    def num_frames(self):
        return self.frames.shape[0]

    @property
    def dim(self):
        return self.frames.shape[1]

    def __eq__(self, other):
        if not isinstance(other, FrameFeatureSet):
            return NotImplemented
        return (self.video_id == other.video_id
                and self.frames.shape == other.frames.shape
                and np.array_equal(self.frames, other.frames))


@dataclass
class VideoExample:
    features: FrameFeatureSet
    ground_truth: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.ground_truth = frozenset(int(l) for l in self.ground_truth)
        if any(l < 0 for l in self.ground_truth):
            raise ValueError("label ids must be non-negative")

    def __eq__(self, other):
        if not isinstance(other, VideoExample):
            return NotImplemented
        return (self.features == other.features
                and self.ground_truth == other.ground_truth)


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


def write_features(examples, path, partition="train"):
    """Serialize examples to the binary feature format; returns a manifest.

    All examples must share the same feature dimension.
    """
    examples = list(examples)
    dims = {ex.features.dim for ex in examples}
    if len(dims) > 1:
        raise DataFormatError("mixed feature dimensions: %s" % sorted(dims))
    dim = dims.pop() if dims else 0

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIQ", FORMAT_VERSION, dim, len(examples)))
        for ex in examples:
            vid = ex.features.video_id.encode("utf-8")
            labels = sorted(ex.ground_truth)
            fh.write(struct.pack("<H", len(vid)))
            fh.write(vid)
            fh.write(struct.pack("<I", ex.features.num_frames))
            fh.write(struct.pack("<H", len(labels)))
            fh.write(struct.pack("<%dI" % len(labels), *labels))
            fh.write(np.ascontiguousarray(ex.features.frames,
                                          dtype="<f4").tobytes())

    return DatasetManifest(partition=partition, example_count=len(examples),
                           feature_dim=dim, paths=[str(path)])


def read_features(path):
    """Read back examples written by :func:`write_features`."""
    with open(path, "rb") as fh:
        data = fh.read()

    if data[:8] != MAGIC:
        raise DataFormatError("bad magic in %s" % path)
    if len(data) < 8 + 16:
        raise DataFormatError("truncated header in %s" % path)
    version, dim, count = struct.unpack_from("<IIQ", data, 8)
    if version != FORMAT_VERSION:
        raise DataFormatError("unsupported format version %d" % version)

    examples = []
    off = 24
    try:
        for _ in range(count):
            (vid_len,) = struct.unpack_from("<H", data, off)
            off += 2
            vid = data[off:off + vid_len].decode("utf-8")
            off += vid_len
            (n_frames,) = struct.unpack_from("<I", data, off)
            off += 4
            (n_labels,) = struct.unpack_from("<H", data, off)
            off += 2
            labels = struct.unpack_from("<%dI" % n_labels, data, off)
            off += 4 * n_labels
            n_vals = n_frames * dim
            end = off + 4 * n_vals
            if end > len(data):
                raise DataFormatError("truncated feature payload in %s" % path)
            frames = np.frombuffer(data, dtype="<f4", count=n_vals,
                                   offset=off).reshape(n_frames, dim).copy()
            off += 4 * n_vals
            examples.append(VideoExample(
                features=FrameFeatureSet(video_id=vid, frames=frames),
                ground_truth=frozenset(labels)))
    except struct.error as exc:
        raise DataFormatError("truncated file %s" % path) from exc
    return examples


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
    """Deterministic synthetic corpus with label-conditioned Gaussian frames.

    Video i always carries label (i mod L), so every label has positives
    whenever n_videos >= n_labels; a second label is added with probability
    `second_label_prob`.
    """
    if n_labels < 1 or n_videos < 1 or dim < 1:
        raise ValueError("n_labels, n_videos, dim must all be >= 1")
    if cluster_spec.means.shape != (n_labels, dim):
        raise ValueError("cluster_spec shape mismatch")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xDA7A]))
    examples = []
    for i in range(n_videos):
        labels = {i % n_labels}
        if n_labels > 1 and rng.random() < second_label_prob:
            extra = int(rng.integers(0, n_labels))
            labels.add(extra)
        n_frames = int(rng.integers(frames_min, frames_max + 1))
        label_list = sorted(labels)
        picks = rng.integers(0, len(label_list), size=n_frames)
        frames = np.empty((n_frames, dim), dtype=np.float32)
        for t in range(n_frames):
            lab = label_list[picks[t]]
            frames[t] = (cluster_spec.means[lab]
                         + cluster_spec.scales[lab]
                         * rng.standard_normal(dim)).astype(np.float32)
        examples.append(VideoExample(
            features=FrameFeatureSet(video_id="v%06d" % i, frames=frames),
            ground_truth=frozenset(labels)))
    return examples


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
