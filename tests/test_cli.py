import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from vidbase import aggregate, cli, data, preprocess


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run("gen-synthetic", "--out", str(out), "--seed", "1",
               "--labels", "4", "--videos", "200", "--dim", "8",
               "--frames-min", "4", "--frames-max", "12")
    assert code == cli.EXIT_OK
    return out


def test_gen_synthetic_split_and_artifacts(corpus):
    parts = {p: data.read_features(os.path.join(corpus, "%s.features" % p))
             for p in ("train", "validate", "test")}
    assert len(parts["train"]) == 140
    assert len(parts["validate"]) == 40
    assert len(parts["test"]) == 20
    ids = [vid for part in parts.values() for vid in part.video_ids]
    assert len(set(ids)) == 200
    with open(os.path.join(corpus, "vocab.txt")) as fh:
        assert len(fh.read().splitlines()) == 4
    with open(os.path.join(corpus, "train.manifest")) as fh:
        text = fh.read()
    assert "config_hash=" in text and "seed=1" in text


def test_gen_synthetic_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run("gen-synthetic", "--out", str(out), "--seed", "9",
            "--labels", "2", "--videos", "30", "--dim", "4")
    for part in ("train", "validate", "test"):
        assert (a / ("%s.features" % part)).read_bytes() == \
            (b / ("%s.features" % part)).read_bytes()


def test_gen_synthetic_bytes_pinned(tmp_path):
    # the generator's draw order and the feature file format are fixed:
    # these files must never change for the same arguments
    out = tmp_path / "g"
    assert run("gen-synthetic", "--out", str(out), "--seed", "4",
               "--labels", "3", "--videos", "40", "--dim", "5") == cli.EXIT_OK
    digests = {part: hashlib.sha256((out / ("%s.features" % part))
                                    .read_bytes()).hexdigest()[:16]
               for part in cli.PARTITIONS}
    assert digests == {"train": "565e74892ebe34ad", "validate": "bcca7efad1b55047",
                       "test": "f7048961a970d4fa"}


def test_preprocess_refuses_leaky_fit(corpus, tmp_path):
    code = run("preprocess", "--data", str(corpus), "--out", str(tmp_path / "p"),
               "--fit-partition", "test")
    assert code == cli.EXIT_USAGE
    code = run("preprocess", "--data", str(corpus), "--out", str(tmp_path / "p"),
               "--fit-partition", "test", "--allow-fit-partition")
    assert code == cli.EXIT_OK


@pytest.fixture(scope="module")
def preprocessed(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    code = run("preprocess", "--data", str(corpus), "--out", str(out))
    assert code == cli.EXIT_OK
    return out


def test_preprocess_outputs(preprocessed):
    assert os.path.exists(os.path.join(preprocessed, "transform.pca"))
    assert os.path.exists(os.path.join(preprocessed, "quantizer.qnt"))
    with open(os.path.join(preprocessed, "report.txt")) as fh:
        report = dict(line.split("=", 1) for line in fh.read().splitlines())
    assert float(report["quantization_relative_rmse"]) < 0.05
    partition = data.read_features(os.path.join(preprocessed, "train.features"))
    assert partition.dim == 8


def test_preprocess_output_independent_of_directory(corpus, tmp_path):
    a, b = tmp_path / "a", tmp_path / "elsewhere" / "b"
    for out in (a, b):
        assert run("preprocess", "--data", str(corpus),
                   "--out", str(out)) == cli.EXIT_OK
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    assert "train.manifest" in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert "paths=train.features\n" in (a / "train.manifest").read_text()


@pytest.mark.parametrize("quantize", [True, False])
def test_preprocess_matches_per_video_reference(tmp_path, quantize):
    # single-frame videos included: whitening and quantizing a partition's
    # concatenated frames must give each video the bytes it gets alone
    src = tmp_path / "corpus"
    assert run("gen-synthetic", "--out", str(src), "--seed", "3",
               "--labels", "3", "--videos", "60", "--dim", "6",
               "--frames-min", "1", "--frames-max", "9") == cli.EXIT_OK
    out = tmp_path / "prep"
    argv = ["preprocess", "--data", str(src), "--out", str(out)]
    assert run(*(argv + ([] if quantize else ["--no-quantize"]))) == cli.EXIT_OK

    fit_frames = data.read_features(str(src / "train.features")).frames
    t = preprocess.fit_whitening(fit_frames, fit_frames.shape[1])
    q = preprocess.fit_quantizer(preprocess.apply_whitening(
        t, fit_frames, l2_normalize=False)) if quantize else None
    err2 = norm2 = 0.0
    for part in cli.PARTITIONS:
        got = data.read_features(str(out / ("%s.features" % part)))
        want = data.read_features(str(src / ("%s.features" % part)))
        assert got.video_ids == want.video_ids
        assert got.labels == want.labels
        assert np.array_equal(got.offsets, want.offsets)
        for g, w in zip(got.videos(), want.videos()):
            z = preprocess.apply_whitening(t, w, l2_normalize=False)
            if q is not None:
                z_q = preprocess.dequantize(q, preprocess.quantize(q, z))
                err2 += float(np.sum((z_q - z) ** 2))
                norm2 += float(np.sum(z ** 2))
                z = z_q
            assert g.tobytes() == z.astype(np.float32).tobytes()
    report = dict(line.split("=", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    if quantize:
        assert abs(float(report["quantization_relative_rmse"])
                   - np.sqrt(err2 / norm2)) <= 1e-9
    else:
        assert "quantization_relative_rmse" not in report


def test_preprocess_empty_partition(tmp_path):
    src = tmp_path / "corpus"
    assert run("gen-synthetic", "--out", str(src), "--seed", "1",
               "--labels", "2", "--videos", "5", "--dim", "4") == cli.EXIT_OK
    assert len(data.read_features(str(src / "test.features"))) == 0
    out = tmp_path / "prep"
    assert run("preprocess", "--data", str(src), "--out", str(out)) \
        == cli.EXIT_OK
    empty = data.read_features(str(out / "test.features"))
    # an empty partition still carries its dimension
    assert len(empty) == 0 and empty.dim == 4
    assert "example_count=0" in (out / "test.manifest").read_text()

    bank = tmp_path / "fbank"
    assert run("train", "--data", str(out), "--vocab-dir", str(src),
               "--out", str(bank), "--model", "logistic", "--level", "frame",
               "--iterations", "1") == cli.EXIT_OK
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--data", str(out),
               "--partition", "test", "--out", str(preds)) == cli.EXIT_OK
    assert preds.read_text() == ""


def test_encode_stats_matches_fresh_pinv_per_video(preprocessed, tmp_path,
                                                   monkeypatch):
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv",
                        lambda a: calls.append(1) or pinv(a))
    cached = tmp_path / "cached"
    assert run("encode", "--data", str(preprocessed), "--out", str(cached),
               "--method", "stats") == cli.EXIT_OK
    # one whitening transform is inverted, once per process
    assert len(calls) == 1

    def invert_fresh(transform, z):
        return np.atleast_2d(z) @ pinv(transform.matrix).T + transform.mean

    monkeypatch.setattr(preprocess, "invert_whitening", invert_fresh)
    fresh = tmp_path / "fresh"
    assert run("encode", "--data", str(preprocessed), "--out", str(fresh),
               "--method", "stats") == cli.EXIT_OK
    for name in sorted(os.listdir(fresh)):
        assert (cached / name).read_bytes() == (fresh / name).read_bytes(), name


def test_encode_stats_dimension(corpus, tmp_path):
    out = tmp_path / "enc"
    code = run("encode", "--data", str(corpus), "--out", str(out),
               "--method", "stats", "--topk", "5")
    assert code == cli.EXIT_OK
    _, mat, layout = aggregate.read_descriptors(str(out / "train.desc"))
    # mean (D) + std (D) + top5 (5D) = 7D
    assert mat.shape[1] == 7 * 8
    names = [name for name, _, _ in layout]
    assert names == ["mean", "std", "topk"]


def test_encode_fisher_dimension(corpus, tmp_path):
    out = tmp_path / "fv"
    code = run("encode", "--data", str(corpus), "--out", str(out),
               "--method", "fisher", "--mixtures", "3",
               "--codebook-sample", "2000")
    assert code == cli.EXIT_OK
    _, mat, _ = aggregate.read_descriptors(str(out / "train.desc"))
    assert mat.shape[1] == 2 * 3 * 8


def test_encode_vlad_dimension(corpus, tmp_path):
    out = tmp_path / "vl"
    code = run("encode", "--data", str(corpus), "--out", str(out),
               "--method", "vlad", "--clusters", "4",
               "--codebook-sample", "2000")
    assert code == cli.EXIT_OK
    _, mat, _ = aggregate.read_descriptors(str(out / "train.desc"))
    assert mat.shape[1] == 4 * 8
    assert np.allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-5)


@pytest.fixture(scope="module")
def encoded(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("desc")
    code = run("encode", "--data", str(corpus), "--out", str(out),
               "--method", "stats")
    assert code == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def bank(corpus, encoded, tmp_path_factory):
    out = tmp_path_factory.mktemp("bank")
    code = run("train", "--descriptors", str(encoded),
               "--vocab-dir", str(corpus), "--out", str(out),
               "--model", "moe", "--level", "video", "--iterations", "5",
               "--seed", "2")
    assert code == cli.EXIT_OK
    return out


def test_train_writes_index_and_models(bank):
    with open(os.path.join(bank, "index.txt")) as fh:
        lines = fh.read().splitlines()
    model_lines = [l for l in lines if l.startswith("model ")]
    assert len(model_lines) == 4
    assert any(l.startswith("config_hash=") for l in lines)
    for line in model_lines:
        fname = line.split()[2]
        assert os.path.exists(os.path.join(bank, fname))


def test_train_deterministic_across_workers(corpus, encoded, tmp_path):
    outs = []
    for tag, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / tag
        code = run("train", "--descriptors", str(encoded),
                   "--vocab-dir", str(corpus), "--out", str(out),
                   "--model", "logistic", "--iterations", "3",
                   "--seed", "5", "--workers", workers)
        assert code == cli.EXIT_OK
        outs.append(out)
    for name in os.listdir(outs[0]):
        if name.endswith(".bin"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_predict_evaluate_oracle_roundtrip(corpus, encoded, bank, tmp_path):
    preds = tmp_path / "preds.txt"
    code = run("predict", "--bank", str(bank), "--descriptors", str(encoded),
               "--partition", "test", "--out", str(preds))
    assert code == cli.EXIT_OK
    assert preds.exists()

    report = tmp_path / "report.txt"
    code = run("evaluate", "--predictions", str(preds),
               "--descriptors", str(encoded), "--partition", "test",
               "--out", str(report))
    assert code == cli.EXIT_OK
    values = dict(line.split("=", 1) for line in report.read_text().splitlines())
    assert 0.0 <= float(values["mAP"]) <= 1.0
    assert 0.0 <= float(values["PERR"]) <= 1.0
    assert "Hit@1" in values and "Hit@5" in values

    code = run("oracle", "--predictions", str(preds),
               "--descriptors", str(encoded), "--partition", "test")
    assert code == cli.EXIT_OK


def test_frame_level_train_predict(corpus, tmp_path):
    bank = tmp_path / "fbank"
    code = run("train", "--data", str(corpus), "--out", str(bank),
               "--model", "logistic", "--level", "frame",
               "--iterations", "2", "--seed", "3")
    assert code == cli.EXIT_OK
    preds = tmp_path / "fpreds.txt"
    code = run("predict", "--bank", str(bank), "--data", str(corpus),
               "--partition", "validate", "--out", str(preds))
    assert code == cli.EXIT_OK
    partition = data.read_features(os.path.join(corpus, "validate.features"))
    n_lines = len(preds.read_text().splitlines())
    assert n_lines == len(partition) * 4


def test_exit_codes():
    # unknown flag -> usage
    assert run("gen-synthetic", "--nope") == cli.EXIT_USAGE
    # missing input directory -> data error
    assert run("preprocess", "--data", "/does/not/exist",
               "--out", "/tmp/vidbase-nope") == cli.EXIT_DATA
    # frame-level training without --data -> usage
    assert run("train", "--out", "/tmp/vidbase-nope2", "--level", "frame",
               "--vocab-dir", "/does/not/exist") in (cli.EXIT_USAGE,
                                                     cli.EXIT_DATA)
    # --workers must be >= 1 -> data error
    assert run("train", "--out", "/tmp/vidbase-nope3",
               "--workers", "0") == cli.EXIT_DATA


def test_evaluate_label_count_mismatch(corpus, tmp_path):
    preds = tmp_path / "short.txt"
    # predictions only cover 2 of the 4 labels
    partition = data.read_features(os.path.join(corpus, "test.features"))
    with open(preds, "w") as fh:
        for vid in partition.video_ids:
            fh.write("%s 0 0.5\n%s 1 0.5\n" % (vid, vid))
    code = run("evaluate", "--predictions", str(preds), "--data", str(corpus),
               "--partition", "test", "--out", str(tmp_path / "r.txt"))
    # refused either at prediction parsing (data) or label-count check (usage)
    assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)
    assert not (tmp_path / "r.txt").exists()


@pytest.mark.parametrize("fault,edit", [
    ("missing video", lambda lines: lines[8:]),
    ("missing label", lambda lines: lines[:5] + lines[6:]),
    ("duplicate row", lambda lines: lines + lines[6:7]),
    ("short row", lambda lines: lines[:3] + [lines[3].rsplit(" ", 1)[0]]
     + lines[4:]),
    ("bad score", lambda lines: lines[:3] + [lines[3].rsplit(" ", 1)[0]
                                             + " x"] + lines[4:]),
    ("foreign video", lambda lines: lines + ["x999999 %d 0.5" % e
                                             for e in range(4)]),
])
def test_evaluate_rejects_partial_or_malformed_predictions(
        corpus, encoded, bank, tmp_path, capsys, fault, edit):
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--descriptors", str(encoded),
               "--partition", "test", "--out", str(preds)) == cli.EXIT_OK
    lines = preds.read_text().splitlines()
    bad_video = {"missing video": lines[0], "missing label": lines[4],
                 "duplicate row": lines[6], "short row": lines[3],
                 "bad score": lines[3],
                 "foreign video": "x999999"}[fault].split()[0]
    preds.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    for command in ("evaluate", "oracle"):
        argv = [command, "--predictions", str(preds),
                "--descriptors", str(encoded), "--partition", "test"]
        if command == "evaluate":
            argv += ["--out", str(tmp_path / "r.txt")]
        assert run(*argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(preds) in err and bad_video in err
    assert not (tmp_path / "r.txt").exists()


def test_train_rejects_label_outside_vocabulary(corpus, encoded, tmp_path):
    desc = tmp_path / "desc"
    desc.mkdir()
    for name in os.listdir(encoded):
        (desc / name).write_bytes((encoded / name).read_bytes())
    lines = (desc / "train.labels").read_text().splitlines()
    lines[0] = lines[0].split()[0] + " 3,99"
    (desc / "train.labels").write_text("\n".join(lines) + "\n")
    code = run("train", "--descriptors", str(desc), "--vocab-dir", str(corpus),
               "--out", str(tmp_path / "bank"), "--model", "logistic",
               "--iterations", "1")
    assert code == cli.EXIT_DATA


def _edit_train_labels(case, lines):
    """train.labels lines edited for one case, and what the error names."""
    vid = lines[2].split()[0]
    if case == "missing-video":
        return lines[:2] + lines[3:], [vid]
    if case == "non-integer-id":
        lines[2] = vid + " 1,x"
        return lines, ["line 3"]
    return lines + [lines[2]], ["line %d" % (len(lines) + 1), vid]


@pytest.mark.parametrize("case", ["missing-video", "non-integer-id",
                                  "listed-twice"])
def test_train_rejects_bad_train_labels(corpus, encoded, tmp_path, capsys,
                                        case):
    desc = tmp_path / "desc"
    desc.mkdir()
    for name in os.listdir(encoded):
        (desc / name).write_bytes((encoded / name).read_bytes())
    lines, named = _edit_train_labels(
        case, (desc / "train.labels").read_text().splitlines())
    (desc / "train.labels").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run("train", "--descriptors", str(desc), "--vocab-dir", str(corpus),
               "--out", str(tmp_path / "bank"), "--model", "logistic",
               "--iterations", "1")
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(desc / "train.labels") in err
    assert all(text in err for text in named), err
    assert not (tmp_path / "bank").exists()


@pytest.mark.parametrize("line", ["1", "x label_0001"],
                         ids=["one-field", "non-integer-id"])
def test_train_rejects_malformed_vocabulary(corpus, encoded, tmp_path, capsys,
                                            line):
    vocab_dir = tmp_path / "vocab"
    vocab_dir.mkdir()
    lines = (corpus / "vocab.txt").read_text().splitlines()
    lines[1] = line
    (vocab_dir / "vocab.txt").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run("train", "--descriptors", str(encoded), "--vocab-dir",
               str(vocab_dir), "--out", str(tmp_path / "bank"),
               "--model", "logistic", "--iterations", "1")
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(vocab_dir / "vocab.txt") in err and "line 2" in err


def test_predict_scores_trailing_skipped_label(corpus, encoded, tmp_path):
    # label 4 of a 5-label vocabulary has no examples: train skips it, and
    # predict still scores it (0) for every video
    vocab_dir = tmp_path / "vocab"
    vocab_dir.mkdir()
    (vocab_dir / "vocab.txt").write_text(
        (corpus / "vocab.txt").read_text() + "4 label_0004\n")
    bank = tmp_path / "bank"
    assert run("train", "--descriptors", str(encoded), "--vocab-dir",
               str(vocab_dir), "--out", str(bank), "--model", "logistic",
               "--iterations", "1") == cli.EXIT_OK
    assert "skip 4 " in (bank / "index.txt").read_text()
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--descriptors", str(encoded),
               "--partition", "test", "--out", str(preds)) == cli.EXIT_OK
    rows = [line.split() for line in preds.read_text().splitlines()]
    n_videos = len((encoded / "test.labels").read_text().splitlines())
    assert len(rows) == 5 * n_videos
    assert [float(s) for _, lab, s in rows if lab == "4"] == [0.0] * n_videos


def _copy_dir(src, dst):
    dst.mkdir()
    for name in os.listdir(src):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


@pytest.mark.parametrize("fault", ["truncated", "trailing"])
def test_predict_rejects_damaged_inputs(encoded, bank, tmp_path, capsys,
                                        fault):
    def damage(path):
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2] if fault == "truncated"
                         else blob + b"\0" * 8)

    desc = _copy_dir(encoded, tmp_path / "desc")
    bad_bank = _copy_dir(bank, tmp_path / "bank")
    for argv, victim in (
            (["--bank", str(bank), "--descriptors", str(desc)],
             desc / "test.desc"),
            (["--bank", str(bad_bank), "--descriptors", str(encoded)],
             bad_bank / "model_0002.bin")):
        damage(victim)
        capsys.readouterr()
        assert run("predict", *argv, "--partition", "test",
                   "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(victim) in err
        assert ("truncated" if fault == "truncated" else "trailing") in err
    assert not (tmp_path / "p.txt").exists()


def test_predict_rejects_bank_it_cannot_stack(corpus, encoded, bank,
                                              tmp_path, capsys):
    # model_0002.bin replaced by a logistic model, then by a MoE model
    # with another expert count: predict exits 2 naming that file
    from vidbase import models
    mixed = _copy_dir(bank, tmp_path / "bank")
    dim = int(dict(line.split("=", 1) for line in
                   (bank / "index.txt").read_text().splitlines()
                   if "=" in line)["feature_dim"])
    for odd in (models.LogisticModel.zeros(dim),
                models.MoEModel.zeros(dim, n_experts=3)):
        (mixed / "model_0002.bin").write_bytes(models.serialize_model(odd))
        capsys.readouterr()
        assert run("predict", "--bank", str(mixed), "--descriptors",
                   str(encoded), "--partition", "test",
                   "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(mixed / "model_0002.bin") in err
        assert str(mixed / "model_0000.bin") in err
    assert not (tmp_path / "p.txt").exists()


@pytest.mark.parametrize("key", ["level", "l2_normalize", "feature_dim"])
def test_predict_rejects_index_without_key(encoded, bank, tmp_path, capsys,
                                           key):
    # predict reads these keys of index.txt; without one it must not guess
    # a default (or die on a KeyError) but exit 2 naming the file and key
    short = _copy_dir(bank, tmp_path / "bank")
    index = short / "index.txt"
    index.write_text("".join(
        line for line in index.read_text().splitlines(keepends=True)
        if not line.startswith(key + "=")))
    capsys.readouterr()
    assert run("predict", "--bank", str(short), "--descriptors",
               str(encoded), "--partition", "test",
               "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(index) in err and key + "=" in err
    assert not (tmp_path / "p.txt").exists()


def test_cli_import_loads_no_scipy():
    # every stage is a process of its own: it must not pay for scipy
    code = ("import sys, vidbase.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                 if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["evaluate", "oracle"])
@pytest.mark.parametrize("content", ["", "\n\n"], ids=["empty", "blank"])
def test_predictions_without_rows_name_the_file(encoded, tmp_path, capsys,
                                                command, content):
    # a partial file is rejected per video (see above); a file with no
    # rows at all scores no label, and must not read as a complete one
    preds = tmp_path / "preds.txt"
    preds.write_text(content)
    argv = [command, "--predictions", str(preds),
            "--descriptors", str(encoded), "--partition", "test"]
    if command == "evaluate":
        argv += ["--out", str(tmp_path / "r.txt")]
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_DATA
    assert str(preds) in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_evaluate_names_ground_truth_label_missing_from_predictions(
        corpus, encoded, bank, tmp_path, capsys):
    # every label-3 row removed: the file is consistent on its own, but
    # scores only labels 0-2 while the ground truth holds label 3
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--descriptors", str(encoded),
               "--partition", "test", "--out", str(preds)) == cli.EXIT_OK
    lines = [l for l in preds.read_text().splitlines()
             if l.split()[1] != "3"]
    preds.write_text("\n".join(lines) + "\n")
    truths = cli._read_labels(encoded / "test.labels")
    first = next(vid for vid in (l.split()[0] for l in lines)
                 if 3 in truths[vid])
    for command in ("evaluate", "oracle"):
        argv = [command, "--predictions", str(preds),
                "--descriptors", str(encoded), "--partition", "test"]
        if command == "evaluate":
            argv += ["--out", str(tmp_path / "r.txt")]
        capsys.readouterr()
        assert run(*argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(preds) in err and "label 3 of video %s " % first in err
    assert not (tmp_path / "r.txt").exists()
