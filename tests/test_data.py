import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidbase import data


def make_partition(videos, dim=None):
    """A partition from (video id, frames, labels) triples."""
    frames = [np.asarray(f, dtype=np.float32) for _, f, _ in videos]
    offsets = np.concatenate(([0], np.cumsum([len(f) for f in frames])))
    if not frames:
        frames = [np.empty((0, dim), dtype=np.float32)]
    return data.Partition([vid for vid, _, _ in videos], np.concatenate(frames),
                          offsets, [labs for _, _, labs in videos])


def assert_same(a, b):
    assert a.video_ids == b.video_ids
    assert a.labels == b.labels
    assert np.array_equal(a.offsets, b.offsets)
    assert a.frames.shape == b.frames.shape
    assert a.frames.tobytes() == b.frames.tobytes()


def test_roundtrip_single_video(tmp_path):
    part = make_partition([("v0", [[0.0, 0.0]], ())])
    path = tmp_path / "one.features"
    manifest = data.write_features(part, path)
    assert manifest.example_count == 1
    assert_same(data.read_features(path), part)


def test_manifest_counts(tmp_path):
    rng = np.random.default_rng(3)
    part = make_partition([("v%d" % i, rng.standard_normal((f, 4)), {i})
                           for i, f in enumerate([2, 5, 7])])
    manifest = data.write_features(part, tmp_path / "d.features")
    assert manifest.example_count == 3
    assert manifest.feature_dim == 4


def test_roundtrip_random_corpus(tmp_path):
    spec = data.ClusterSpec.separated(11, 3, 6)
    part = data.generate_synthetic(11, 3, 100, 6, spec)
    path = tmp_path / "c.features"
    data.write_features(part, path)
    assert_same(data.read_features(path), part)


def test_empty_payload(tmp_path):
    path = tmp_path / "empty.features"
    data.write_features(make_partition([], dim=5), path)
    back = data.read_features(path)
    assert len(back) == 0 and back.frames.shape == (0, 5)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.features"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(data.DataFormatError, match="bad magic"):
        data.read_features(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.features"
    data.write_features(make_partition([("v0", [[1.0, 2.0], [3.0, 4.0]], ()),
                                        ("v1", [[5.0, 6.0]], (1,))]), path)
    blob = path.read_bytes()
    for cut in (1, 5, 8, 20, len(blob) - 24):
        path.write_bytes(blob[:-cut])
        with pytest.raises(data.DataFormatError, match="truncated") as err:
            data.read_features(path)
        assert str(path) in str(err.value)


def test_non_utf8_video_id_rejected(tmp_path):
    path = tmp_path / "u.features"
    data.write_features(make_partition([("v0", [[1.0, 2.0]], (0,)),
                                        ("v1", [[3.0, 4.0]], (1,))]), path)
    blob = bytearray(path.read_bytes())
    second = 24 + 2 + 2 + 6 + 4 + 8 + 2  # v0's record, v1's id length
    blob[second] = 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(data.DataFormatError,
                       match="id of video 1 is not UTF-8") as err:
        data.read_features(path)
    assert str(path) in str(err.value)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.features"
    data.write_features(make_partition([("v0", [[1.0, 2.0]], (0,))]), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(data.DataFormatError, match="8 trailing bytes") as err:
        data.read_features(path)
    assert str(path) in str(err.value)


def test_zero_frame_video_rejected(tmp_path):
    # a header may claim zero frames; the reader refuses it, naming the file
    path = tmp_path / "z.features"
    data.write_features(make_partition([("v0", [[1.0, 2.0]], (0,)),
                                        ("v1", [[3.0, 4.0]], (1,))]), path)
    blob = bytearray(path.read_bytes())
    first = 24 + 2 + 2  # header, id length, "v0"
    blob[first:first + 4] = (0).to_bytes(4, "little")
    del blob[first + 10:first + 18]  # v0's one frame
    path.write_bytes(bytes(blob))
    with pytest.raises(data.DataFormatError, match="at least one frame") as err:
        data.read_features(path)
    assert str(path) in str(err.value)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.features"
    data.write_features(make_partition([], dim=2), path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(data.DataFormatError, match="version"):
        data.read_features(path)


def test_partition_views_and_slice():
    part = make_partition([("a", [[1.0, 2.0]], (0,)),
                           ("b", [[3.0, 4.0], [5.0, 6.0]], (1, 2)),
                           ("c", [[7.0, 8.0]] * 3, ())])
    views = list(part.videos())
    assert [v.tolist() for v in views[:2]] == [[[1.0, 2.0]],
                                               [[3.0, 4.0], [5.0, 6.0]]]
    assert all(np.shares_memory(v, part.frames) for v in views)
    mid = part.slice(1, 3)
    assert mid.video_ids == ("b", "c")
    assert mid.labels == (frozenset({1, 2}), frozenset())
    assert mid.offsets.tolist() == [0, 2, 5]
    assert np.array_equal(mid.frames, part.frames[1:])
    assert len(part.slice(3, 3)) == 0 and part.slice(3, 3).dim == 2


@pytest.mark.parametrize("field,value,match", [
    ("frames", np.zeros(3), "frames must be"),
    ("frames", np.zeros((1, 3, 1)), "frames must be"),
    ("offsets", [0, 1], "offsets must"),
    ("offsets", [1, 2, 3], "offsets must"),
    ("offsets", [0, 2, 2], "offsets must"),
    ("offsets", [0, 0, 3], "at least one frame"),
    ("labels", [(0,)], "one label set"),
    ("frames", [[1.0], [np.nan], [2.0]], "finite"),
    ("frames", [[1.0], [np.inf], [2.0]], "finite"),
    ("labels", [(0,), (-1,)], "non-negative"),
], ids=["1-d-frames", "3-d-frames", "short-offsets", "offsets-from-1",
        "offsets-past-end", "empty-video", "label-set-count", "nan", "inf",
        "negative-label"])
def test_partition_rejects(field, value, match):
    fields = {"video_ids": ["a", "b"], "frames": np.zeros((3, 1)),
              "offsets": [0, 1, 3], "labels": [(0,), (1,)]}
    data.Partition(**fields)
    fields[field] = value
    with pytest.raises(ValueError, match=match):
        data.Partition(**fields)


def test_generator_determinism(tmp_path):
    spec = data.ClusterSpec.separated(7, 2, 3)
    a = data.generate_synthetic(7, 2, 50, 3, spec)
    b = data.generate_synthetic(7, 2, 50, 3, spec)
    assert_same(a, b)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    data.write_features(a, pa)
    data.write_features(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generator_label_coverage():
    spec = data.ClusterSpec.separated(1, 5, 4)
    part = data.generate_synthetic(1, 5, 10, 4, spec)
    assert set().union(*part.labels) == set(range(5))


def test_zero_scale_rejected():
    with pytest.raises(ValueError, match="positive"):
        data.ClusterSpec(means=np.zeros((2, 3)), scales=np.array([1.0, 0.0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_videos=st.integers(1, 20))
def test_roundtrip_property(tmp_path_factory, seed, n_videos):
    spec = data.ClusterSpec.separated(seed, 2, 3)
    part = data.generate_synthetic(seed, 2, n_videos, 3, spec)
    path = tmp_path_factory.mktemp("rt") / "x.features"
    data.write_features(part, path)
    assert_same(data.read_features(path), part)
    # a slice of the corpus round-trips too
    cut = n_videos // 2
    sliced = part.slice(cut, n_videos)
    data.write_features(sliced, path)
    assert_same(data.read_features(path), sliced)


def test_vocab_invariants():
    with pytest.raises(ValueError):
        data.LabelVocabulary(((0, "a"), (2, "b")))
    with pytest.raises(ValueError):
        data.LabelVocabulary(((0, "a"), (1, "a")))
    v = data.LabelVocabulary.trivial(3)
    assert v.size == 3


def test_manifest_roundtrip(tmp_path):
    m = data.DatasetManifest(partition="train", example_count=5,
                             feature_dim=8, paths=["a", "b"],
                             extra={"seed": "7"})
    m.write(tmp_path / "m.txt")
    back = data.DatasetManifest.read(tmp_path / "m.txt")
    assert back == m
