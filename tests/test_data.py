import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidbase import data, io

from helpers import label_arrays, label_lists, video_frames


def make_partition(videos, dim=None):
    """A partition from (video id, frames, labels) triples."""
    frames = [np.asarray(f, dtype=np.float32) for _, f, _ in videos]
    offsets = np.concatenate(([0], np.cumsum([len(f) for f in frames])))
    if not frames:
        frames = [np.empty((0, dim), dtype=np.float32)]
    labels = label_arrays(labs for _, _, labs in videos)
    return data.Partition([vid for vid, _, _ in videos], np.concatenate(frames),
                          offsets, *labels)


def assert_same(a, b):
    assert a.video_ids == b.video_ids
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.label_offsets, b.label_offsets)
    assert np.array_equal(a.offsets, b.offsets)
    assert a.frames.shape == b.frames.shape
    assert a.frames.tobytes() == b.frames.tobytes()


def test_roundtrip_single_video(tmp_path):
    part = make_partition([("v0", [[0.0, 0.0]], ())])
    path = tmp_path / "one.features"
    digest = data.write_features(part, path)
    back = data.read_features(path)
    assert_same(back, part)
    assert digest == io.load(path, "features").sha256


def test_manifest_counts(tmp_path):
    # the header replaced the manifest: it gives the video count and the
    # dimension through the arrays' shapes, and the ids; the label sets
    # are a count per video and the sorted labels in turn
    rng = np.random.default_rng(3)
    part = make_partition([("v%d" % i, rng.standard_normal((f, 4)), labs)
                           for i, (f, labs) in enumerate([(2, {3, 0}), (5, ()),
                                                          (7, {2})])])
    data.write_features(part, tmp_path / "d.features")
    arrays, meta, _ = io.load(tmp_path / "d.features", "features")
    assert arrays["frames"].shape == (14, 4) and arrays["offsets"].shape == (4,)
    assert meta["video_ids"] == ["v0", "v1", "v2"]
    assert arrays["label_counts"].tolist() == [2, 0, 1]
    assert arrays["labels"].tolist() == [0, 3, 2]


def test_roundtrip_random_corpus(tmp_path):
    part = data.generate_synthetic(11, 3, 100, 6)
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
    with pytest.raises(data.DataFormatError, match="bad magic") as err:
        data.read_features(path)
    assert str(path) in str(err.value)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.features"
    data.write_features(make_partition([("v0", [[1.0, 2.0], [3.0, 4.0]], ()),
                                        ("v1", [[5.0, 6.0]], (1,))]), path)
    blob = path.read_bytes()
    for cut in (1, 5, 8, 20, len(blob) - 24, len(blob) - 4):
        path.write_bytes(blob[:-cut])
        with pytest.raises(data.DataFormatError, match="truncated") as err:
            data.read_features(path)
        assert str(path) in str(err.value)


def test_non_utf8_video_id_rejected(tmp_path):
    # ids are JSON in the header: a byte that is not UTF-8 there fails the
    # header's parse, and any other change to an id fails the digest
    path = tmp_path / "u.features"
    data.write_features(make_partition([("v0", [[1.0, 2.0]], (0,)),
                                        ("v1", [[3.0, 4.0]], (1,))]), path)
    blob = path.read_bytes()
    at = blob.index(b'"v1"') + 1
    for byte, what in ((0xFF, "malformed header"), (ord("w"), "sha256")):
        path.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])
        with pytest.raises(data.DataFormatError, match=what) as err:
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
    # a well-formed container may give a video zero frames; the reader
    # refuses it, naming the file
    path = tmp_path / "z.features"
    io.save(path, "features",
            {"frames": np.ones((1, 2), dtype="<f4"),
             "offsets": np.array([0, 0, 1], dtype="<i8"),
             "label_counts": np.array([1, 1], dtype="<i8"),
             "labels": np.array([0, 1], dtype="<i8")},
            {"video_ids": ["v0", "v1"]})
    with pytest.raises(data.DataFormatError, match="at least one frame") as err:
        data.read_features(path)
    assert str(path) in str(err.value)


def _bad_videos(ids=("a", "b"), counts=(1, 1), labels=(0, 1)):
    return ({"label_counts": np.asarray(counts), "labels": np.asarray(labels)},
            {"video_ids": list(ids)})


@pytest.mark.parametrize("videos,match", [
    (_bad_videos(counts=(1,)), "a count per video"),
    (_bad_videos(counts=(1, 2)), "a count per video"),
    (_bad_videos(counts=(2, -1)), "non-negative"),
    (_bad_videos(labels=(0, -1)), "non-negative"),
    (_bad_videos(labels=(0.0, 1.0)), "integers"),
    (_bad_videos(ids=("a", "a")), "video a is listed twice"),
    (_bad_videos(counts=(2, 0), labels=(1, 1)),
     "label ids of video a must be strictly increasing"),
    (_bad_videos(counts=(0, 2), labels=(3, 1)),
     "label ids of video b must be strictly increasing"),
    (_bad_videos(ids=("a", 3)), "string video ids"),
    (({"labels": np.array([0, 1])}, {"video_ids": ["a", "b"]}), "integers"),
    (({"label_counts": np.array([1, 1]), "labels": np.array([0, 1])}, {}),
     "string video ids"),
], ids=["short-counts", "counts-past-labels", "negative-count",
        "negative-label", "float-labels", "listed-twice", "duplicate-label",
        "unsorted-labels", "non-string-id",
        "no-counts", "no-ids"])
def test_header_videos_checked(tmp_path, videos, match):
    # containers another writer got wrong, under a valid digest
    arrays, meta = videos
    path = tmp_path / "h.features"
    io.save(path, "features",
            dict(arrays, frames=np.ones((2, 2), dtype="<f4"),
                 offsets=np.array([0, 1, 2], dtype="<i8")), meta)
    with pytest.raises(data.DataFormatError, match=match) as err:
        data.read_features(path)
    assert str(path) in str(err.value)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.features"
    data.write_features(make_partition([], dim=2), path)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(data.DataFormatError, match="version 99") as err:
        data.read_features(path)
    assert str(path) in str(err.value)


def test_partition_views_and_slice():
    part = make_partition([("a", [[1.0, 2.0]], (0,)),
                           ("b", [[3.0, 4.0], [5.0, 6.0]], (1, 2)),
                           ("c", [[7.0, 8.0]] * 3, ())])
    views = list(video_frames(part))
    assert [v.tolist() for v in views[:2]] == [[[1.0, 2.0]],
                                               [[3.0, 4.0], [5.0, 6.0]]]
    assert all(np.shares_memory(v, part.frames) for v in views)
    mid = part.slice(1, 3)
    assert mid.video_ids == ("b", "c")
    assert label_lists(mid) == [[1, 2], []]
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
    ("label_offsets", [0, 1], "label_offsets must"),
    ("frames", [[1.0], [np.nan], [2.0]], "finite"),
    ("frames", [[1.0], [np.inf], [2.0]], "finite"),
    ("labels", [0, -1], "non-negative"),
], ids=["1-d-frames", "3-d-frames", "short-offsets", "offsets-from-1",
        "offsets-past-end", "empty-video", "label-set-count", "nan", "inf",
        "negative-label"])
def test_partition_rejects(field, value, match):
    fields = {"video_ids": ["a", "b"], "frames": np.zeros((3, 1)),
              "offsets": [0, 1, 3], "labels": [0, 1],
              "label_offsets": [0, 1, 2]}
    data.Partition(**fields)
    fields[field] = value
    with pytest.raises(ValueError, match=match):
        data.Partition(**fields)


def test_generator_determinism(tmp_path):
    a = data.generate_synthetic(7, 2, 50, 3)
    b = data.generate_synthetic(7, 2, 50, 3)
    assert_same(a, b)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    data.write_features(a, pa)
    data.write_features(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generator_label_coverage():
    part = data.generate_synthetic(1, 5, 10, 4)
    assert set(part.labels.tolist()) == set(range(5))


def test_zero_scale_rejected():
    with pytest.raises(ValueError, match="positive"):
        data.generate_synthetic(1, 2, 10, 3, scale=0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n_videos=st.integers(1, 20))
def test_roundtrip_property(tmp_path_factory, seed, n_videos):
    part = data.generate_synthetic(seed, 2, n_videos, 3)
    path = tmp_path_factory.mktemp("rt") / "x.features"
    data.write_features(part, path)
    assert_same(data.read_features(path), part)
    # a slice of the corpus round-trips too
    cut = n_videos // 2
    sliced = part.slice(cut, n_videos)
    data.write_features(sliced, path)
    assert_same(data.read_features(path), sliced)


def test_manifest_roundtrip(tmp_path):
    # what the manifest held (seed, config hash, flags) is the header's
    # meta now, given back as the partition's `meta`; slices keep it
    meta = {"seed": 7, "config_hash": "ab12", "whitened": True,
            "quantized": False, "space": "0" * 64}
    part = make_partition([("v0", [[1.0, 2.0]], (0,)),
                           ("v1", [[3.0, 4.0]], (1,))])
    data.write_features(part, tmp_path / "m.features", meta)
    back = data.read_features(tmp_path / "m.features")
    assert back.meta == meta
    assert back.slice(1, 2).meta == meta


def _one_row_videos(rng, n_videos, dim):
    """A partition of `n_videos` one-row videos with random labels."""
    labs = [set(rng.choice(6, size=rng.integers(0, 3), replace=False).tolist())
            for _ in range(n_videos)]
    return data.Partition(["d%d" % i for i in range(n_videos)],
                          rng.standard_normal((n_videos, dim)),
                          np.arange(n_videos + 1), *label_arrays(labs))


@pytest.mark.parametrize("kind", ["features", "descriptors"])
@pytest.mark.parametrize("n_videos", [0, 1, 60])
def test_partition_container_roundtrip(tmp_path, kind, n_videos):
    # features and descriptors are one layout: both kinds give back the
    # frames bit for bit, the offsets, the labels and the meta
    rng = np.random.default_rng(n_videos)
    if kind == "descriptors":
        part = _one_row_videos(rng, n_videos, 5)
    elif n_videos:
        part = data.generate_synthetic(n_videos, 3, n_videos, 5)
    else:
        part = make_partition([], dim=5)
    meta = {"seed": n_videos, "space": "s", "layout": [["mean", 0, 5]]}
    path = tmp_path / ("p." + kind)
    digest = data.write_partition(path, kind, part, meta)
    back = data.read_partition(path, kind)
    assert back.frames.shape == part.frames.shape
    assert np.array_equal(back.frames.view("u4"), part.frames.view("u4"))
    for name in ("offsets", "labels", "label_offsets"):
        assert np.array_equal(getattr(back, name), getattr(part, name)), name
    assert back.video_ids == part.video_ids and back.meta == meta
    assert digest == io.load(path, kind).sha256
    with pytest.raises(data.DataFormatError, match="holds %s" % kind):
        data.read_partition(path, "bank")
