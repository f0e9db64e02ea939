import numpy as np
import pytest

from vidbase import aggregate as agg


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


def test_descriptor_layout():
    rng = np.random.default_rng(3)
    d = agg.build_descriptor(rng.standard_normal((10, 4)), k=5)
    assert len(d) == 4 * (2 + 5)
    assert agg.descriptor_layout(4, 5) == \
        (("mean", 0, 4), ("std", 4, 4), ("topk", 8, 20))


def test_descriptor_decomposition():
    rng = np.random.default_rng(4)
    frames = rng.standard_normal((20, 3))
    d = agg.build_descriptor(frames, k=2)
    mean, std = agg.aggregate_mean_std(frames)
    parts = {name: d[off:off + length]
             for name, off, length in agg.descriptor_layout(3, 2)}
    assert np.array_equal(parts["mean"], mean)
    assert np.array_equal(parts["std"], std)
    assert np.array_equal(parts["topk"], agg.aggregate_topk(frames, 2))


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


def test_global_normalizer():
    rng = np.random.default_rng(7)
    sample = np.asarray([agg.build_descriptor(rng.standard_normal((10, 3)), k=2)
                         for _ in range(2000)])
    t = agg.fit_global_normalizer(sample)
    from vidbase.preprocess import apply_whitening
    z = apply_whitening(t, sample, l2_normalize=False)
    cov = z.T @ z / len(z)
    assert np.max(np.abs(cov - np.eye(cov.shape[0]))) < 0.15
    zn = apply_whitening(t, sample, l2_normalize=True)
    assert np.allclose(np.linalg.norm(zn, axis=1), 1.0, atol=1e-6)


def test_descriptor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    mat = rng.standard_normal((5, 6)).astype(np.float32).astype(np.float64)
    layout = (("mean", 0, 3), ("std", 3, 3))
    agg.write_descriptors(tmp_path / "x.desc", ["a", "b", "c", "d", "e"],
                          mat, layout)
    vids, back, back_layout = agg.read_descriptors(tmp_path / "x.desc")
    assert vids == ["a", "b", "c", "d", "e"]
    assert back_layout == layout
    assert np.array_equal(back, mat)


def test_descriptor_file_rejects_truncation_and_trailing_bytes(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "x.desc"
    agg.write_descriptors(path, ["a", "b", "c"], rng.standard_normal((3, 4)),
                          (("mean", 0, 4),))
    blob = path.read_bytes()
    # 30 bytes cuts the layout table, half the file cuts a row, and one
    # byte short cuts the last value
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
    path = tmp_path / "u.desc"
    agg.write_descriptors(path, ["a", "b"], np.ones((2, 3)),
                          (("mean", 0, 3),))
    blob = path.read_bytes()
    for needle, what in ((b"mean", "layout entry 0"), (b"\x01\x00b",
                                                       "id of video 1")):
        at = blob.index(needle) + (2 if needle.startswith(b"\x01") else 0)
        path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
        with pytest.raises(ValueError, match=what + " is not UTF-8") as err:
            agg.read_descriptors(path)
        assert str(path) in str(err.value)
