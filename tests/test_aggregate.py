import numpy as np
import pytest

from vidbase import aggregate as agg
from vidbase import io
from vidbase.io import DataFormatError

from helpers import label_lists, labelled


def test_mean_std_symmetric_pair():
    mean, std = agg.aggregate_mean_std([[1.0, 3.0], [3.0, 1.0]])
    assert np.array_equal(mean, [2.0, 2.0])
    assert np.array_equal(std, [1.0, 1.0])


def test_mean_std_single_frame():
    mean, std = agg.aggregate_mean_std([[5.0, -5.0]])
    assert np.array_equal(mean, [5.0, -5.0])
    assert np.array_equal(std, [0.0, 0.0])


def test_mean_std_two_pass_oracle():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((1000, 7))
    mean, std = agg.aggregate_mean_std(frames)
    ref_mean = np.array([sum(frames[:, j]) / 1000 for j in range(7)])
    ref_std = np.sqrt(np.array(
        [sum((frames[:, j] - ref_mean[j]) ** 2) / 1000 for j in range(7)]))
    assert np.allclose(mean, ref_mean, rtol=1e-9)
    assert np.allclose(std, ref_std, rtol=1e-9)


def test_topk_sort_prefix():
    out = agg.aggregate_topk(np.array([[3.0], [1.0], [2.0]]), k=2)
    assert np.array_equal(out, [3.0, 2.0])


def test_topk_padding():
    out = agg.aggregate_topk(np.array([[7.0]]), k=3)
    assert np.array_equal(out, [7.0, 7.0, 7.0])
    # padding uses the per-dimension minimum, matching a padded full sort
    frames = np.array([[2.0, -1.0], [5.0, 0.0]])
    out = agg.aggregate_topk(frames, k=4)
    ref = []
    for j in range(2):
        vals = sorted(frames[:, j], reverse=True)
        vals += [min(frames[:, j])] * 2
        ref.extend(vals)
    assert np.array_equal(out, ref)


def test_topk_sort_oracle():
    rng = np.random.default_rng(1)
    frames = rng.standard_normal((100, 2))
    out = agg.aggregate_topk(frames, k=5)
    for j in range(2):
        ref = np.sort(frames[:, j])[::-1][:5]
        assert np.array_equal(out[j * 5:(j + 1) * 5], ref)


def test_top1_is_max_and_nonincreasing():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((50, 4))
    out = agg.aggregate_topk(frames, k=3).reshape(4, 3)
    assert np.array_equal(out[:, 0], frames.max(axis=0))
    assert np.all(np.diff(out, axis=1) <= 0)


def test_descriptor_decomposition():
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((20, 3))
    d = agg.build_descriptor(frames, k=2)
    assert len(d) == 3 * (2 + 2)
    mean, std = agg.aggregate_mean_std(frames)
    assert np.array_equal(d[0:3], mean)
    assert np.array_equal(d[3:6], std)
    assert np.array_equal(d[6:], agg.aggregate_topk(frames, 2))


def test_frame_permutation_invariance():
    rng = np.random.default_rng(5)
    frames = rng.standard_normal((30, 3))
    d1 = agg.build_descriptor(frames, k=4)
    d2 = agg.build_descriptor(frames[rng.permutation(30)], k=4)
    assert np.allclose(d1, d2, rtol=1e-12, atol=1e-12)


def test_length_formula():
    rng = np.random.default_rng(6)
    for dim in (1, 3, 8):
        for k in (1, 2, 5):
            frames = rng.standard_normal((6, dim))
            assert len(agg.build_descriptor(frames, k=k)) == dim * (2 + k)


@pytest.mark.parametrize("n_frames,dim,k", [(1, 4, 5), (3, 4, 5), (5, 4, 5),
                                             (12, 6, 2), (40, 1, 3)])
def test_stack_gives_each_video_its_own_bits(n_frames, dim, k):
    # a stack of equal-length videos is described in one call; every row
    # must be the video's descriptor alone, bit for bit (F = 1, F < K
    # padding and D = 1 included)
    rng = np.random.default_rng(10)
    stack = (rng.standard_normal((7, n_frames, dim)) * 3).astype(np.float32)
    stack[2] = stack[2, :1]  # ties within a video
    got = agg.build_descriptor(stack, k=k)
    assert got.shape == (7, (2 + k) * dim)
    for video, row in zip(stack, got):
        assert row.view(np.int64).tolist() == \
            agg.build_descriptor(video, k=k).view(np.int64).tolist()
    # any leading axes: a (2, 7, F, D) stack is two (7, F, D) stacks
    twice = agg.build_descriptor(np.stack([stack, stack[::-1]]), k=k)
    assert twice.tobytes() == np.stack([got, got[::-1]]).tobytes()


def test_global_normalizer():
    rng = np.random.default_rng(7)
    sample = np.asarray([agg.build_descriptor(rng.standard_normal((10, 3)), k=2)
                         for _ in range(2000)])
    t = agg.fit_global_normalizer(sample)
    from vidbase.preprocess import apply_whitening, unit_rows
    z = apply_whitening(t, sample)
    cov = z.T @ z / len(z)
    assert np.max(np.abs(cov - np.eye(cov.shape[0]))) < 0.15
    zn = unit_rows(apply_whitening(t, sample))
    assert np.allclose(np.linalg.norm(zn, axis=1), 1.0, atol=1e-6)


def test_descriptor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((5, 6)).astype(np.float32).astype(np.float64)
    labels = [{0}, {1, 3}, set(), {2}, {0, 1}]
    digest = agg.write_descriptors(tmp_path / "x.desc",
                                   labelled(["a", "b", "c", "d", "e"], labels),
                                   mat, {"seed": 3, "space": "s"})
    # a partition of one-row videos, with its meta
    back = agg.read_descriptors(tmp_path / "x.desc")
    assert back.video_ids == ("a", "b", "c", "d", "e")
    assert label_lists(back) == [sorted(l) for l in labels]
    assert back.meta == {"seed": 3, "space": "s"}
    assert back.frames.dtype == np.float32
    assert np.array_equal(back.frames, mat)
    assert back.offsets.tolist() == list(range(6))
    assert digest == io.load(tmp_path / "x.desc", "descriptors").sha256


def test_descriptor_file_rejects_truncation_and_trailing_bytes(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "x.desc"
    agg.write_descriptors(path, labelled(["a", "b", "c"], [{0}, {1}, {0}]),
                          rng.standard_normal((3, 4)))
    blob = path.read_bytes()
    # 9 bytes cuts the prefix, 30 the header, half the file cuts a row,
    # and one byte short cuts the last value
    for size in (9, 30, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:size])
        with pytest.raises(ValueError, match="truncated") as err:
            agg.read_descriptors(path)
        assert str(path) in str(err.value)
    path.write_bytes(blob + b"\0" * 3)
    with pytest.raises(ValueError, match="3 trailing bytes") as err:
        agg.read_descriptors(path)
    assert str(path) in str(err.value)


def test_descriptor_file_rejects_non_utf8_ids(tmp_path):
    # a byte that is not UTF-8 in an id or in the meta fails the header's
    # parse, naming the file
    path = tmp_path / "u.desc"
    agg.write_descriptors(path, labelled(["a", "b"], [{0}, {1}]),
                          np.ones((2, 3)), {"method": "mean"})
    blob = path.read_bytes()
    for needle in (b'"mean"', b'"b"'):
        at = blob.index(needle) + 1
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        with pytest.raises(ValueError, match="malformed header") as err:
            agg.read_descriptors(path)
        assert str(path) in str(err.value)


def test_descriptor_matrix_needs_a_row_per_video(tmp_path):
    path = tmp_path / "r.desc"
    # a valid partition whose second video has two rows
    io.save(path, "descriptors",
            {"frames": np.ones((3, 2), dtype="<f4"),
             "offsets": np.array([0, 1, 3], dtype="<i8"),
             "label_counts": np.array([1, 1], dtype="<i8"),
             "labels": np.array([0, 1], dtype="<i8")},
            {"layout": [], "video_ids": ["a", "b"]})
    with pytest.raises(ValueError, match="one row per video") as err:
        agg.read_descriptors(path)
    assert str(path) in str(err.value)


def test_write_descriptors_refuses_a_non_finite_matrix(tmp_path):
    # the writer checks what the reader checks: no file is written
    path = tmp_path / "n.desc"
    matrix = np.ones((3, 2))
    matrix[1, 0] = np.nan
    with pytest.raises(DataFormatError, match="finite") as err:
        agg.write_descriptors(path, labelled(["a", "b", "c"], [{0}, {1}, {0}]),
                              matrix)
    assert str(path) in str(err.value)
    assert not path.exists()
