import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from vidbase import (aggregate, cli, data, encoders, io, models, preprocess,
                     trainer)

from helpers import label_lists, video_frames


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
    meta = parts["train"].meta
    assert len(meta["config_hash"]) == 16 and meta["seed"] == 1
    assert meta["whitened"] is False and meta["space"] is None
    assert sorted(os.listdir(corpus)) == ["test.features", "train.features",
                                          "validate.features", "vocab.txt"]


def test_gen_synthetic_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run("gen-synthetic", "--out", str(out), "--seed", "9",
            "--labels", "2", "--videos", "30", "--dim", "4")
    for part in ("train", "validate", "test"):
        assert (a / ("%s.features" % part)).read_bytes() == \
            (b / ("%s.features" % part)).read_bytes()


def test_gen_synthetic_bytes_pinned(tmp_path):
    # the generator's draw order is fixed: the arrays it gives (frames,
    # offsets, ids, labels) are pinned to the values they had in the
    # per-video feature format, and the files to the container format
    out = tmp_path / "g"
    assert run("gen-synthetic", "--out", str(out), "--seed", "4",
               "--labels", "3", "--videos", "40", "--dim", "5") == cli.EXIT_OK

    def sha(blob):
        return hashlib.sha256(blob).hexdigest()[:16]

    arrays, files = {}, {}
    for part in cli.PARTITIONS:
        path = out / ("%s.features" % part)
        p = data.read_features(path)
        arrays[part] = [sha(p.frames.astype("<f4").tobytes()),
                        sha(p.offsets.astype("<i8").tobytes()),
                        sha("\n".join(p.video_ids).encode()),
                        sha(json.dumps(label_lists(p)).encode())]
        files[part] = sha(path.read_bytes())
    assert arrays == {
        "train": ["9a490cb7bd0fb8e9", "738100c91eb895a5", "20fa7ee6a432d3c3",
                  "9f7672cd78a61b2c"],
        "validate": ["c7aa4cdb4f40fb10", "d5d8d5a9bbbdd3d5",
                     "9b2d3b60c10ee700", "10b8f3b4325d4aeb"],
        "test": ["091c68789f22f7df", "eda03e8a79216d51", "e99939946ff810ed",
                 "30aade9634d6c185"]}
    assert files == {"train": "d01c4d1b9eebb86c", "validate": "23d84f8f5cc31615",
                     "test": "477e04e7418b5c4b"}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--separation", "--scale"])
def test_gen_synthetic_refuses_a_non_finite_flag(tmp_path, capsys, flag,
                                                 value):
    out = tmp_path / "g"
    capsys.readouterr()
    assert run("gen-synthetic", "--out", str(out), "--videos", "10",
               flag, value) == cli.EXIT_USAGE
    assert "%s must be finite" % flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,named", [
    (["--scale", "0"], "--scale must be positive"),
    (["--scale", "-1"], "--scale must be positive"),
    (["--frames-min", "5", "--frames-max", "3"], "--frames-max >= --frames-min"),
    (["--frames-min", "0"], "--frames-min must be >= 1"),
    (["--frames-min", "0", "--frames-max", "0"], "--frames-min must be >= 1")],
    ids=["scale-0", "scale-negative", "frames-max-below-min", "frames-min-0",
         "frames-both-0"])
def test_gen_synthetic_refuses_a_bad_scale_or_frame_range(tmp_path, capsys,
                                                          flags, named):
    # checked before anything is drawn or made: a usage error naming the
    # flag, and no --out directory
    out = tmp_path / "g"
    capsys.readouterr()
    assert run("gen-synthetic", "--out", str(out), "--videos", "10",
               *flags) == cli.EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_refuses_leaky_fit(corpus, tmp_path):
    # preprocess fits on train only: there is no flag to fit on another
    code = run("preprocess", "--data", str(corpus), "--out", str(tmp_path / "p"),
               "--fit-partition", "test")
    assert code == cli.EXIT_USAGE
    assert not (tmp_path / "p").exists()


def test_preprocess_always_quantizes(corpus, tmp_path):
    # preprocess has one path, which quantizes: --no-quantize is no option
    assert run("preprocess", "--data", str(corpus), "--out", str(tmp_path / "p"),
               "--no-quantize") == cli.EXIT_USAGE
    assert not (tmp_path / "p").exists()


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
    assert names == ["quantizer.qnt", "report.txt", "test.features",
                     "train.features", "transform.pca", "validate.features"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_preprocess_dim_out_feeds_the_whole_chain(corpus, tmp_path):
    # the paper's PCA reduction: 8-d frames whitened to 4 dimensions; the
    # stats encoder maps them back to the 8-d activation space, where the
    # videos' means span 4 dimensions, so the normalizer whitens the
    # (2 + 5) * 8 descriptor values onto 4 fewer directions
    prep, desc, bank = tmp_path / "prep", tmp_path / "desc", tmp_path / "bank"
    assert run("preprocess", "--data", str(corpus), "--out", str(prep),
               "--dim-out", "4") == cli.EXIT_OK
    for part in cli.PARTITIONS:
        assert data.read_features(prep / ("%s.features" % part)).dim == 4
    assert "dim_out=4\n" in (prep / "report.txt").read_text()
    assert run("encode", "--data", str(prep), "--out", str(desc), "--method",
               "stats", "--topk", "5") == cli.EXIT_OK
    test = aggregate.read_descriptors(desc / "test.desc")
    assert test.dim == (2 + 5) * 8 - 4
    assert run("train", "--descriptors", str(desc), "--vocab-dir",
               str(corpus), "--out", str(bank), "--model", "logistic",
               "--iterations", "2") == cli.EXIT_OK
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--descriptors", str(desc),
               "--out", str(preds)) == cli.EXIT_OK
    assert run("evaluate", "--predictions", str(preds), "--descriptors",
               str(desc), "--out", str(tmp_path / "r.txt")) == cli.EXIT_OK


@pytest.mark.parametrize("value", ["-1", "9"])
def test_preprocess_refuses_a_dim_out_outside_the_frames(corpus, tmp_path,
                                                         capsys, value):
    # the corpus has 8-d frames; 0, the default, keeps all 8
    out = tmp_path / "prep"
    capsys.readouterr()
    assert run("preprocess", "--data", str(corpus), "--out", str(out),
               "--dim-out", value) == cli.EXIT_USAGE
    assert "--dim-out must be in [1, 8]" in capsys.readouterr().err
    assert not out.exists()


def test_preprocess_exits_3_on_a_rank_deficient_fit(corpus, tmp_path,
                                                    capsys):
    # train frames with one constant column have rank 7 of 8: whitening
    # all 8 dimensions is a numerical failure, and nothing is written
    raw = _copy_dir(corpus, tmp_path / "raw")
    arrays, meta, _ = io.load(raw / "train.features", "features")
    arrays = {name: a.copy() for name, a in arrays.items()}
    arrays["frames"][:, 3] = 1.5
    io.save(raw / "train.features", "features", arrays, meta)
    out = tmp_path / "prep"
    capsys.readouterr()
    assert run("preprocess", "--data", str(raw),
               "--out", str(out)) == cli.EXIT_NUMERIC
    assert ("numerical failure: requested d_out=8 but effective rank is 7"
            in capsys.readouterr().err)
    assert not list(out.glob("*.features"))


def test_preprocess_matches_per_video_reference(tmp_path):
    # single-frame videos included: whitening and quantizing a partition's
    # concatenated frames must give each video the bytes it gets alone
    src = tmp_path / "corpus"
    assert run("gen-synthetic", "--out", str(src), "--seed", "3",
               "--labels", "3", "--videos", "60", "--dim", "6",
               "--frames-min", "1", "--frames-max", "9") == cli.EXIT_OK
    out = tmp_path / "prep"
    assert run("preprocess", "--data", str(src),
               "--out", str(out)) == cli.EXIT_OK

    fit_frames = data.read_features(str(src / "train.features")).frames
    t = preprocess.fit_whitening(fit_frames, fit_frames.shape[1])
    q = preprocess.fit_quantizer(preprocess.apply_whitening(t, fit_frames))
    err2 = norm2 = 0.0
    for part in cli.PARTITIONS:
        got = data.read_features(str(out / ("%s.features" % part)))
        want = data.read_features(str(src / ("%s.features" % part)))
        assert got.video_ids == want.video_ids
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.label_offsets, want.label_offsets)
        assert np.array_equal(got.offsets, want.offsets)
        for g, w in zip(video_frames(got), video_frames(want)):
            z = preprocess.apply_whitening(t, w)
            z_q = preprocess.dequantize(q, preprocess.quantize(q, z))
            err2 += float(np.sum((z_q - z) ** 2))
            norm2 += float(np.sum(z ** 2))
            assert g.tobytes() == z_q.astype(np.float32).tobytes()
    report = dict(line.split("=", 1)
                  for line in (out / "report.txt").read_text().splitlines())
    assert abs(float(report["quantization_relative_rmse"])
               - np.sqrt(err2 / norm2)) <= 1e-9


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
    assert empty.offsets.tolist() == [0] and empty.meta["whitened"] is True

    bank = tmp_path / "fbank"
    assert run("train", "--data", str(out), "--vocab-dir", str(src),
               "--out", str(bank), "--model", "logistic", "--level", "frame",
               "--iterations", "1") == cli.EXIT_OK
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--data", str(out),
               "--partition", "test", "--out", str(preds)) == cli.EXIT_OK
    assert preds.read_text() == ""



def test_predict_on_a_bank_that_trained_no_label(tmp_path, capsys):
    # every video has the one label, so train skips it (no negatives) and
    # predict scores it 0, as it does any skipped label
    src = tmp_path / "one"
    assert run("gen-synthetic", "--out", str(src), "--seed", "2",
               "--labels", "1", "--videos", "30", "--dim", "4") == cli.EXIT_OK
    bank = tmp_path / "bank"
    assert run("train", "--data", str(src), "--out", str(bank),
               "--model", "logistic", "--level", "frame",
               "--iterations", "1") == cli.EXIT_OK
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--data", str(src),
               "--partition", "test", "--out", str(preds)) == cli.EXIT_OK
    rows = [line.split() for line in preds.read_text().splitlines()]
    test = data.read_features(src / "test.features")
    assert [vid for vid, _, _ in rows] == list(test.video_ids)
    assert all(row[1:] == ["0", "0.000000000"] for row in rows)
    # the width check still holds for an empty bank
    other = tmp_path / "wide"
    assert run("gen-synthetic", "--out", str(other), "--seed", "2",
               "--labels", "1", "--videos", "30", "--dim", "5") == cli.EXIT_OK
    capsys.readouterr()
    assert run("predict", "--bank", str(bank), "--data", str(other),
               "--partition", "test", "--out",
               str(tmp_path / "p2.txt")) == cli.EXIT_DATA
    assert str(bank / cli.BANK_FILE) in capsys.readouterr().err

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
        fresh_calls.append(1)
        return np.atleast_2d(z) @ pinv(transform.matrix).T + transform.mean

    fresh_calls = []
    monkeypatch.setattr(preprocess, "invert_whitening", invert_fresh)
    fresh = tmp_path / "fresh"
    assert run("encode", "--data", str(preprocessed), "--out", str(fresh),
               "--method", "stats") == cli.EXIT_OK
    # the encoder looks the inverse up through the module, so the patched
    # one is what ran
    assert fresh_calls
    for name in sorted(os.listdir(fresh)):
        assert (cached / name).read_bytes() == (fresh / name).read_bytes(), name


def _per_video_encode_stats(frames, offsets, k, transform=None):
    # the stats encoder as one loop over single videos: each video's frames
    # inverted and described on their own
    dim = frames.shape[1] if transform is None else transform.dim
    descs = np.empty((len(offsets) - 1, (2 + k) * dim))
    for i in range(len(descs)):
        video = frames[offsets[i]:offsets[i + 1]]
        if transform is not None:
            video = preprocess.invert_whitening(transform, video)
        descs[i] = aggregate.build_descriptor(video, k=k)
    return descs


@pytest.fixture(scope="module")
def short_prep(tmp_path_factory):
    # 1 to 6 frames per video: single-frame videos and, at --topk 5,
    # videos padded to K
    src = tmp_path_factory.mktemp("short")
    assert run("gen-synthetic", "--out", str(src), "--seed", "3",
               "--labels", "3", "--videos", "90", "--dim", "6",
               "--frames-min", "1", "--frames-max", "6") == cli.EXIT_OK
    out = tmp_path_factory.mktemp("short_prep")
    assert run("preprocess", "--data", str(src), "--out", str(out)) \
        == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def few_frames_prep(tmp_path_factory):
    # 1 to 5 frames of dimension 8 per video: every frame count's videos
    # of a partition fit in one stack
    src = tmp_path_factory.mktemp("few_frames")
    assert run("gen-synthetic", "--out", str(src), "--seed", "5",
               "--labels", "3", "--videos", "120", "--dim", "8",
               "--frames-min", "1", "--frames-max", "5") == cli.EXIT_OK
    out = tmp_path_factory.mktemp("few_frames_prep")
    assert run("preprocess", "--data", str(src), "--out", str(out)) \
        == cli.EXIT_OK
    return out


@pytest.mark.parametrize("case", ["short-videos", "many-stacks", "raw",
                                  "one-stack-per-count"])
def test_encode_stats_bytes_equal_per_video_loop(case, request, tmp_path,
                                                 monkeypatch):
    data_dir = request.getfixturevalue(
        {"short-videos": "short_prep", "many-stacks": "preprocessed",
         "raw": "corpus", "one-stack-per-count": "few_frames_prep"}[case])
    if case == "many-stacks":
        # 1 to 3 videos of 4 to 12 frames of dimension 8 per stack: every
        # frame count spans several stacks
        monkeypatch.setattr(aggregate, "STACK_ELEMENTS", 100)
    argv = ["encode", "--data", str(data_dir), "--method", "stats",
            "--topk", "5", "--out"]
    assert run(*argv, str(tmp_path / "stacked")) == cli.EXIT_OK
    monkeypatch.setattr(aggregate, "encode_stats", _per_video_encode_stats)
    assert run(*argv, str(tmp_path / "per_video")) == cli.EXIT_OK
    names = sorted(os.listdir(tmp_path / "per_video"))
    assert names == sorted(os.listdir(tmp_path / "stacked"))
    assert len(names) == 5
    for name in names:
        assert (tmp_path / "stacked" / name).read_bytes() == \
            (tmp_path / "per_video" / name).read_bytes(), name


def _perfbench_module(name):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                        name + ".py")
    spec = importlib.util.spec_from_file_location("perfbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_documented_and_benchmarked_commands_parse():
    # README's CLI block and every argv the benchmark builds: a removed or
    # renamed flag fails here, not in the middle of a benchmark run
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("vidbase ")]
    assert len(commands) == 8
    bench = _perfbench_module("run")
    for spec in bench.WORKLOADS.values():
        corpus = bench.Corpus("work", 7)
        steps, source = bench.chain(spec, corpus)
        commands += [corpus.generate(spec)] + [argv for _, argv, _ in steps]
        # the oracle of the benchmark's correctness gate
        commands.append(["oracle", "--predictions", corpus.preds] + source
                        + ["--partition", "test"])
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail("%s: %s" % (" ".join(argv), exc))


def test_benchmark_traced_names_are_functions(preprocessed, tmp_path,
                                              monkeypatch):
    # the benchmark's tracer wraps these by name, and a traced `wide` run
    # fails unless encode --method stats calls the last two
    for module, names in _perfbench_module("tracer").TRACED.items():
        for name in names:
            assert inspect.isfunction(getattr(
                importlib.import_module("vidbase." + module), name, None)), \
                "vidbase.%s.%s" % (module, name)
    calls = []
    for module, name in ((preprocess, "invert_whitening"),
                         (aggregate, "build_descriptor")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name,
                            **kw: calls.append(_n) or _f(*a, **kw))
    assert run("encode", "--data", str(preprocessed), "--out",
               str(tmp_path / "d"), "--method", "stats") == cli.EXIT_OK
    assert {"invert_whitening", "build_descriptor"} == set(calls)


# The benchmark's tracer hooks read their functions' arguments by position
# and their results by shape (`train_all`'s reads `.skipped` off each value
# of the mapping it returns): a tiny chain runs every stage through
# perfbench/stage.py with tracing on, as a traced benchmark run does, so
# that a changed signature or return value fails here.

@pytest.fixture(scope="module")
def traced_chain(tmp_path_factory):
    """{stage: (exit code, record, spans file)} of a traced chain over a
    3-label, 60-video, 4-dimensional corpus."""
    work = tmp_path_factory.mktemp("traced")
    trace_dir = work / "trace"
    trace_dir.mkdir()
    corpus, prep, stats, fisher = (str(work / name) for name in
                                   ("corpus", "prep", "stats", "fisher"))
    stages = {
        "gen-synthetic": ["gen-synthetic", "--out", corpus, "--seed", "3",
                          "--labels", "3", "--videos", "60", "--dim", "4"],
        "preprocess": ["preprocess", "--data", corpus, "--out", prep],
        "encode-stats": ["encode", "--data", prep, "--out", stats,
                         "--method", "stats"],
        "encode-fisher": ["encode", "--data", prep, "--out", fisher,
                          "--method", "fisher", "--mixtures", "2"],
        # a batch this large puts each label in a block of its own, so the
        # three blocks train on two worker threads
        "train-video": ["train", "--descriptors", fisher, "--vocab-dir",
                        corpus, "--out", str(work / "bank"), "--iterations",
                        "2", "--batch-size", str(1 << 19), "--workers", "2"],
        "train-frame": ["train", "--level", "frame", "--data", prep,
                        "--vocab-dir", corpus, "--out", str(work / "fbank"),
                        "--model", "logistic", "--iterations", "1",
                        "--frames-per-video", "4"],
        "predict-video": ["predict", "--bank", str(work / "bank"),
                          "--descriptors", fisher, "--out",
                          str(work / "preds.txt")],
        "predict-frame": ["predict", "--bank", str(work / "fbank"), "--data",
                          prep, "--out", str(work / "fpreds.txt")],
        "evaluate-video": ["evaluate", "--predictions", str(work / "preds.txt"),
                           "--descriptors", fisher, "--out",
                           str(work / "report.txt")],
        "evaluate-frame": ["evaluate", "--predictions",
                           str(work / "fpreds.txt"), "--data", prep, "--out",
                           str(work / "freport.txt")],
    }
    stage = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                         "stage.py")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    out = {}
    for name, argv in stages.items():
        record = work / (name + ".json")
        code = subprocess.run([sys.executable, stage, str(record),
                               str(trace_dir), "--"] + argv, env=env,
                              capture_output=True).returncode
        rec = json.loads(record.read_text()) if record.exists() else None
        out[name] = code, rec, trace_dir / (name + ".npz")
    return out


def test_every_traced_stage_passes_the_tracer_checks(traced_chain):
    for name, (code, rec, _) in traced_chain.items():
        assert code == 0 and rec is not None, name
        trace = rec["trace"]
        assert trace["nested"], name
        assert abs(trace["self_sum_s"] - trace["span_sum_s"]) < 1e-6, name


def _called_layers(traced_chain):
    return {layer for _, rec, _ in traced_chain.values()
            for layer, v in rec["trace"]["layers"].items() if v["calls"]}


def test_every_tracer_hook_runs(traced_chain):
    tracer = _perfbench_module("tracer")
    assert set(tracer.HOOKS) | set(tracer.PRE_HOOKS) <= _called_layers(
        traced_chain)
    counters = traced_chain["train-video"][1]["counters"]
    assert counters["trainer.labels_skipped"] == 0
    assert counters["trainer.updates"] > 0


def test_the_chain_calls_every_name_the_benchmark_expects(traced_chain):
    # a traced benchmark run fails when its workload leaves a name of
    # CALLED uncalled, so a stage rerouted around a traced function (say
    # read_descriptors) fails here, in one chain over every workload's names
    expected = set().union(*_perfbench_module("run").CALLED.values())
    assert expected - _called_layers(traced_chain) == set()


def test_video_training_spans_run_on_worker_threads(traced_chain):
    # the tracer hangs a worker thread's spans off the main thread's open
    # span; the check above holds for them only if they are accounted apart
    trace = np.load(traced_chain["train-video"][2])
    names = trace["names"].tolist()
    spans = trace["spans"]
    threads = spans[spans[:, 1] == names.index("trainer.train_label"), 3]
    assert len(threads) == 3 and np.all(threads > 0)


def test_encode_stats_dimension(corpus, tmp_path):
    out = tmp_path / "enc"
    code = run("encode", "--data", str(corpus), "--out", str(out),
               "--method", "stats", "--topk", "5")
    assert code == cli.EXIT_OK
    desc = aggregate.read_descriptors(str(out / "train.desc"))
    # mean (D) + std (D) + top5 (5D) = 7D
    assert desc.dim == 7 * 8


def test_encode_fisher_dimension(corpus, tmp_path):
    out = tmp_path / "fv"
    code = run("encode", "--data", str(corpus), "--out", str(out),
               "--method", "fisher", "--mixtures", "3")
    assert code == cli.EXIT_OK
    mat = aggregate.read_descriptors(str(out / "train.desc")).frames
    assert mat.shape[1] == 2 * 3 * 8


def test_codebook_is_fit_on_a_sample_of_train_frames(corpus, tmp_path,
                                                     monkeypatch):
    # past CODEBOOK_SAMPLE train frames, the codebook is fit on that many
    # distinct ones in partition order, the same ones on every run
    train = data.read_features(corpus / "train.features").frames
    row_of = {row.tobytes(): i for i, row in enumerate(train)}
    assert len(row_of) == len(train) > 300
    monkeypatch.setattr(cli, "CODEBOOK_SAMPLE", 300)
    seen = []
    for name in ("fit_kmeans", "fit_gmm"):
        monkeypatch.setattr(encoders, name, lambda frames, *a, _f=getattr(
            encoders, name), _n=name, **kw: seen.append((_n, frames))
            or _f(frames, *a, **kw))
    for method, fit, codebook in (("vlad", "fit_kmeans", "codebook.kms"),
                                  ("fisher", "fit_gmm", "codebook.gmm")):
        blobs = []
        for out in (tmp_path / method / "a", tmp_path / method / "b"):
            seen.clear()
            assert run("encode", "--data", str(corpus), "--out", str(out),
                       "--method", method, "--clusters", "4",
                       "--mixtures", "2") == cli.EXIT_OK
            name, sample = seen[0]  # fit_gmm's own k-means call comes after
            rows = [row_of[row.tobytes()] for row in sample]
            assert name == fit and rows == sorted(set(rows))
            assert len(rows) == 300
            blobs.append((out / codebook).read_bytes())
        assert blobs[0] == blobs[1]


def test_encode_vlad_dimension(corpus, tmp_path):
    out = tmp_path / "vl"
    code = run("encode", "--data", str(corpus), "--out", str(out),
               "--method", "vlad", "--clusters", "4")
    assert code == cli.EXIT_OK
    mat = aggregate.read_descriptors(str(out / "train.desc")).frames
    assert mat.shape[1] == 4 * 8
    assert np.allclose(np.linalg.norm(mat, axis=1), 1.0, atol=1e-5)


@pytest.mark.parametrize("method,flag,value", [
    ("stats", "--topk", "0"), ("stats", "--topk", "-2"),
    ("fisher", "--mixtures", "0"), ("fisher", "--mixtures", "-1"),
    ("vlad", "--clusters", "0")])
def test_encode_refuses_a_size_below_one(corpus, tmp_path, capsys, method,
                                         flag, value):
    out = tmp_path / "enc"
    capsys.readouterr()
    assert run("encode", "--data", str(corpus), "--out", str(out),
               "--method", method, flag, value) == cli.EXIT_USAGE
    assert "%s must be >= 1" % flag in capsys.readouterr().err
    assert not out.exists()


def test_encode_records_a_seed_only_where_one_is_drawn(corpus, tmp_path):
    # stats encoding draws no random number: its headers and report hold
    # no seed; Fisher's and VLAD's hold --seed. No header holds a layout
    for method in ("stats", "fisher", "vlad"):
        out = tmp_path / method
        assert run("encode", "--data", str(corpus), "--out", str(out),
                   "--method", method, "--seed", "5") == cli.EXIT_OK
        seed = {} if method == "stats" else {"seed": 5}
        for part in cli.PARTITIONS:
            meta = io.load(out / ("%s.desc" % part), "descriptors").meta
            assert "layout" not in meta
            assert {k: v for k, v in meta.items() if k == "seed"} == seed
        report = (out / "report.txt").read_text().splitlines()
        assert [line for line in report if line.startswith("seed=")] == \
            ["seed=%d" % v for v in seed.values()]


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


def test_train_writes_index_and_models(bank, encoded):
    # the index and the model files are one container now: the stacked
    # models, their label ids and loss traces, and the settings
    assert os.listdir(bank) == [cli.BANK_FILE]
    arrays, meta, _ = io.load(bank / cli.BANK_FILE, "bank")
    assert arrays["label_ids"].tolist() == [0, 1, 2, 3]
    assert arrays["gating"].shape[:2] == (4, 2)
    assert arrays["loss_traces"].shape == (4, 6)
    assert len(meta["config_hash"]) == 16 and meta["seed"] == 2
    assert (meta["level"], meta["model"], meta["labels"]) == ("video", "moe", 4)
    assert meta["skipped"] == []
    desc = aggregate.read_descriptors(encoded / "train.desc")
    assert meta["feature_dim"] == desc.dim
    assert meta["space"] == desc.meta["space"]


@pytest.mark.parametrize("kind,params", [
    ("logistic", ["weights"]), ("hinge", ["weights"]),
    ("moe", ["gating", "experts"])], ids=["logistic", "hinge", "moe"])
def test_bank_holds_only_what_predict_reads(corpus, encoded, tmp_path, kind,
                                            params):
    # the label ids, the loss traces and the model's parameter blocks: no
    # optimizer state; the kind is the --model name
    assert run("train", "--descriptors", str(encoded), "--vocab-dir",
               str(corpus), "--out", str(tmp_path), "--model", kind,
               "--iterations", "2") == cli.EXIT_OK
    arrays, meta, _ = io.load(tmp_path / cli.BANK_FILE, "bank")
    assert list(models.KINDS[kind].ARRAYS) == params
    assert sorted(arrays) == sorted(["label_ids", "loss_traces"] + params)
    assert meta["params"]["kind"] == meta["model"] == kind


def test_bank_keeps_every_loss_trace(corpus, encoded, tmp_path, monkeypatch):
    # each label's whole loss trace, as train_all gave it, is in the bank
    seen = []
    train_all = trainer.train_all
    monkeypatch.setattr(trainer, "train_all",
                        lambda *a, **k: seen.append(train_all(*a, **k))
                        or seen[-1])
    assert run("train", "--descriptors", str(encoded), "--vocab-dir",
               str(corpus), "--out", str(tmp_path / "b"), "--model",
               "logistic", "--iterations", "4") == cli.EXIT_OK
    traces = io.load(tmp_path / "b" / cli.BANK_FILE,
                     "bank").arrays["loss_traces"]
    assert traces.tolist() == [res.loss_trace for res in seen[0].values()]
    assert traces.shape == (4, 5)


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
    assert os.listdir(outs[0]) == os.listdir(outs[1]) == [cli.BANK_FILE]
    for name in os.listdir(outs[0]):
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


def test_train_rejects_a_negative_l2(corpus, tmp_path, capsys):
    # a negative L2 term makes the regularized loss unbounded below
    out = tmp_path / "bank"
    assert run("train", "--data", str(corpus), "--out", str(out),
               "--level", "frame", "--model", "logistic", "--l2", "-0.9",
               "--iterations", "1") == cli.EXIT_DATA
    assert "l2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--iterations", "0"), ("--batch-size", "-1"), ("--sample-cap", "0"),
    ("--lr", "0"), ("--lr", "-0.5"), ("--mixtures", "0")])
def test_train_refuses_a_setting_below_its_bound(tmp_path, capsys, flag,
                                                 value):
    # a usage error naming the flag, before any input is read: --data
    # names no directory, which would be a data error
    out = tmp_path / "bank"
    capsys.readouterr()
    assert run("train", "--data", str(tmp_path / "missing"), "--out",
               str(out), "--level", "frame", "--model", "moe", flag,
               value) == cli.EXIT_USAGE
    assert "usage error: %s must be positive" % flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value,setting", [
    ("--l2", "nan", "l2"), ("--lr", "nan", "learning_rate"),
    ("--lr", "inf", "learning_rate"), ("--hinge-margin", "nan", "hinge_margin")])
def test_train_refuses_a_non_finite_setting(corpus, tmp_path, capsys, flag,
                                            value, setting):
    out = tmp_path / "bank"
    capsys.readouterr()
    assert run("train", "--data", str(corpus), "--out", str(out),
               "--level", "frame", "--model", "hinge", "--iterations", "1",
               flag, value) == cli.EXIT_DATA
    assert "%s must be finite" % setting in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_exits_3_when_every_label_diverges(corpus, tmp_path, capsys):
    # a finite but huge learning rate overflows every label's loss at its
    # first iteration: a bank of skipped labels would score every label 0
    out = tmp_path / "bank"
    capsys.readouterr()
    assert run("train", "--data", str(corpus), "--out", str(out),
               "--level", "frame", "--model", "logistic", "--iterations", "1",
               "--lr", "1e300") == cli.EXIT_NUMERIC
    assert "every label with both classes diverged" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("case", [
    "predict-frame-bank", "predict-video-bank", "evaluate", "oracle",
    "train-video", "train-frame"])
def test_missing_input_flag_is_a_usage_error(corpus, encoded, bank, tmp_path,
                                             capsys, case):
    # each command names the input flag it lacks, before reading any file
    fbank = tmp_path / "fbank"
    if case == "predict-frame-bank":
        assert run("train", "--data", str(corpus), "--out", str(fbank),
                   "--model", "logistic", "--level", "frame",
                   "--iterations", "1") == cli.EXIT_OK
    preds = tmp_path / "p.txt"
    argv, flag = {
        "predict-frame-bank": (["predict", "--bank", str(fbank),
                                "--descriptors", str(encoded),
                                "--out", str(preds)], "--data"),
        "predict-video-bank": (["predict", "--bank", str(bank),
                                "--data", str(corpus),
                                "--out", str(preds)], "--descriptors"),
        "evaluate": (["evaluate", "--predictions", str(preds),
                      "--out", str(tmp_path / "r.txt")],
                     "--data or --descriptors"),
        "oracle": (["oracle", "--predictions", str(preds)],
                   "--data or --descriptors"),
        "train-video": (["train", "--out", str(tmp_path / "b")],
                        "--descriptors"),
        "train-frame": (["train", "--level", "frame",
                         "--out", str(tmp_path / "b")], "--data"),
    }[case]
    capsys.readouterr()
    assert run(*argv) == cli.EXIT_USAGE
    assert "%s required" % flag in capsys.readouterr().err
    assert not preds.exists() and not (tmp_path / "b").exists()


def test_evaluate_label_count_mismatch(corpus, tmp_path, capsys):
    preds = tmp_path / "short.txt"
    # predictions only cover 2 of the 4 labels: the reader refuses a
    # ground-truth label the file does not score
    partition = data.read_features(os.path.join(corpus, "test.features"))
    with open(preds, "w") as fh:
        for vid in partition.video_ids:
            fh.write("%s 0 0.5\n%s 1 0.5\n" % (vid, vid))
    capsys.readouterr()
    code = run("evaluate", "--predictions", str(preds), "--data", str(corpus),
               "--partition", "test", "--out", str(tmp_path / "r.txt"))
    assert code == cli.EXIT_DATA
    assert str(preds) in capsys.readouterr().err
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


def _copy_dir(src, dst):
    dst.mkdir()
    for name in os.listdir(src):
        (dst / name).write_bytes((src / name).read_bytes())
    return dst


def _rewrite_desc(path, edit):
    """Rewrite a descriptors container with its arrays and header meta
    edited by `edit`, under a valid digest, as another writer could."""
    arrays, meta, _ = io.load(path, "descriptors")
    arrays = {name: a.copy() for name, a in arrays.items()}
    edit(arrays, meta)
    io.save(path, "descriptors", arrays, meta)


def test_train_rejects_label_outside_vocabulary(corpus, encoded, tmp_path):
    desc = _copy_dir(encoded, tmp_path / "desc")
    _rewrite_desc(desc / "train.desc",
                  lambda arrays, meta: arrays["labels"].__setitem__(0, 99))
    code = run("train", "--descriptors", str(desc), "--vocab-dir", str(corpus),
               "--out", str(tmp_path / "bank"), "--model", "logistic",
               "--iterations", "1")
    assert code == cli.EXIT_DATA


def test_predict_rejects_label_outside_vocabulary(corpus, encoded, bank,
                                                  tmp_path, capsys):
    # the scored set holds the partition's ground truth, so a label id
    # outside the bank's vocabulary is a data error, as in train
    desc = _copy_dir(encoded, tmp_path / "desc")
    _rewrite_desc(desc / "test.desc",
                  lambda arrays, meta: arrays["labels"].__setitem__(-1, 99))
    capsys.readouterr()
    code = run("predict", "--bank", str(bank), "--descriptors", str(desc),
               "--out", str(tmp_path / "p.txt"))
    assert code == cli.EXIT_DATA
    assert "label id 99" in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def test_train_names_the_file_the_video_and_the_vocabulary(corpus, encoded,
                                                            tmp_path, capsys):
    # a 2-label vocab.txt over the 4-label corpus: the first train video
    # with a label id past it is named, with both files
    vocab = tmp_path / "vocab"
    vocab.mkdir()
    (vocab / "vocab.txt").write_text("0 a\n1 b\n")
    train = aggregate.read_descriptors(encoded / "train.desc")
    first = next(vid for vid, labs in zip(train.video_ids, label_lists(train))
                 if labs[-1] >= 2)
    capsys.readouterr()
    code = run("train", "--descriptors", str(encoded), "--vocab-dir",
               str(vocab), "--out", str(tmp_path / "bank"),
               "--model", "logistic", "--iterations", "1")
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(encoded / "train.desc") in err
    assert "video %s" % first in err
    assert str(vocab / "vocab.txt") in err
    assert not (tmp_path / "bank").exists()


def test_predict_names_the_file_the_video_and_the_bank(corpus, tmp_path,
                                                       capsys):
    # test.features's last label id set to 999 under a valid digest: the
    # frame-level predict names the file, its last video and the bank
    fbank = tmp_path / "fbank"
    assert run("train", "--data", str(corpus), "--out", str(fbank),
               "--model", "logistic", "--level", "frame",
               "--iterations", "1") == cli.EXIT_OK
    feats = _copy_dir(corpus, tmp_path / "feats")
    arrays, meta, _ = io.load(feats / "test.features", "features")
    arrays = {name: a.copy() for name, a in arrays.items()}
    arrays["labels"][-1] = 999
    io.save(feats / "test.features", "features", arrays, meta)
    capsys.readouterr()
    code = run("predict", "--bank", str(fbank), "--data", str(feats),
               "--out", str(tmp_path / "p.txt"))
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "label id 999" in err and str(feats / "test.features") in err
    assert "video %s" % meta["video_ids"][-1] in err
    assert str(fbank / cli.BANK_FILE) in err
    assert not (tmp_path / "p.txt").exists()


def _edit_train_labels(case, arrays, meta):
    """train.desc's label arrays or header edited for one case, and what
    the error names."""
    vid = meta["video_ids"][2]
    if case == "missing-video":
        arrays["label_counts"] = arrays["label_counts"][:-1]
        return ["a count per video"]
    if case == "non-integer-id":
        arrays["labels"] = arrays["labels"] + 0.5
        return ["non-negative integers"]
    meta["video_ids"][3] = vid
    return ["video %s is listed twice" % vid]


@pytest.mark.parametrize("case", ["missing-video", "non-integer-id",
                                  "listed-twice"])
def test_train_rejects_bad_train_labels(corpus, encoded, tmp_path, capsys,
                                        case):
    # the labels travel in train.desc: label arrays without a count per
    # video or with label ids that are not integers, or a header listing a
    # video twice, are a data error naming the file
    desc = _copy_dir(encoded, tmp_path / "desc")
    named = []
    _rewrite_desc(desc / "train.desc", lambda arrays, meta: named.extend(
        _edit_train_labels(case, arrays, meta)))
    capsys.readouterr()
    code = run("train", "--descriptors", str(desc), "--vocab-dir", str(corpus),
               "--out", str(tmp_path / "bank"), "--model", "logistic",
               "--iterations", "1")
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(desc / "train.desc") in err
    assert all(text in err for text in named), err
    assert not (tmp_path / "bank").exists()


@pytest.mark.parametrize("line", ["1", "x label_0001", "2 label_0002",
                                  "1 label_0000"],
                         ids=["one-field", "non-integer-id", "sparse-ids",
                              "duplicate-name"])
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


def test_train_rejects_empty_vocabulary(encoded, tmp_path, capsys):
    (tmp_path / "vocab.txt").write_text("\n")
    capsys.readouterr()
    code = run("train", "--descriptors", str(encoded), "--vocab-dir",
               str(tmp_path), "--out", str(tmp_path / "bank"),
               "--model", "logistic", "--iterations", "1")
    assert code == cli.EXIT_DATA
    assert str(tmp_path / "vocab.txt") in capsys.readouterr().err
    assert not (tmp_path / "bank").exists()


@pytest.mark.parametrize("level", ["video", "frame"])
def test_train_rejects_nonpositive_frames_per_video(corpus, encoded, tmp_path,
                                                    level):
    source = (["--descriptors", str(encoded)] if level == "video"
              else ["--data", str(corpus)])
    assert run("train", *source, "--level", level, "--vocab-dir", str(corpus),
               "--out", str(tmp_path / "bank"),
               "--frames-per-video", "0") == cli.EXIT_DATA
    assert not (tmp_path / "bank").exists()


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
    meta = io.load(bank / cli.BANK_FILE, "bank").meta
    assert meta["skipped"] == [[4, "no positive examples"]]
    assert meta["labels"] == 5
    preds = tmp_path / "preds.txt"
    assert run("predict", "--bank", str(bank), "--descriptors", str(encoded),
               "--partition", "test", "--out", str(preds)) == cli.EXIT_OK
    rows = [line.split() for line in preds.read_text().splitlines()]
    n_videos = len(aggregate.read_descriptors(encoded / "test.desc").video_ids)
    assert len(rows) == 5 * n_videos
    assert [float(s) for _, lab, s in rows if lab == "4"] == [0.0] * n_videos


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
             bad_bank / cli.BANK_FILE)):
        damage(victim)
        capsys.readouterr()
        assert run("predict", *argv, "--partition", "test",
                   "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(victim) in err
        assert ("truncated" if fault == "truncated" else "trailing") in err
    assert not (tmp_path / "p.txt").exists()


def test_non_finite_descriptors_exit_2_naming_the_file(corpus, encoded, bank,
                                                      tmp_path, capsys):
    # one NaN under a valid sha256, as another writer could make it: train
    # and predict reject the file instead of skipping every label or
    # failing on the scores
    desc = tmp_path / "desc"
    desc.mkdir()
    for part in ("train", "test"):
        arrays, meta, _ = io.load(encoded / ("%s.desc" % part), "descriptors")
        arrays = {name: a.copy() for name, a in arrays.items()}
        arrays["frames"][1, 2] = np.nan
        io.save(desc / ("%s.desc" % part), "descriptors", arrays, meta)
    for argv, victim in (
            (["train", "--descriptors", str(desc), "--vocab-dir",
              str(corpus), "--out", str(tmp_path / "b")], desc / "train.desc"),
            (["predict", "--bank", str(bank), "--descriptors", str(desc),
              "--out", str(tmp_path / "p.txt")], desc / "test.desc")):
        capsys.readouterr()
        assert run(*argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(victim) in err and "must be finite" in err
    assert not (tmp_path / "b").exists()
    assert not (tmp_path / "p.txt").exists()


def _rewrite_bank(bank, dst, edit):
    """A copy of a bank with its arrays and header edited by `edit`, under
    a valid digest, as another writer could make it."""
    arrays, meta, _ = io.load(bank / cli.BANK_FILE, "bank")
    arrays, meta = dict(arrays), json.loads(json.dumps(meta))
    edit(arrays, meta)
    dst.mkdir()
    io.save(dst / cli.BANK_FILE, "bank", arrays, meta)
    return dst / cli.BANK_FILE


def test_predict_rejects_bank_it_cannot_stack(encoded, bank, tmp_path, capsys):
    # a bank is one container, so its labels cannot mix kinds or shapes;
    # its models must still match its label ids and its model settings:
    # fewer ids than models, an id past the vocabulary, a repeated id, ids
    # out of order, a missing array and another model kind are each a data
    # error naming the file
    for n, edit in enumerate((
            lambda arrays, meta: arrays.update(
                label_ids=arrays["label_ids"][:3]),
            lambda arrays, meta: arrays.update(
                label_ids=arrays["label_ids"] + 1),
            lambda arrays, meta: arrays.update(
                label_ids=np.r_[0, arrays["label_ids"][:-1]]),
            lambda arrays, meta: arrays.update(
                label_ids=arrays["label_ids"][::-1].copy()),
            lambda arrays, meta: arrays.pop("experts"),
            lambda arrays, meta: meta["params"].update(kind="logistic"))):
        path = _rewrite_bank(bank, tmp_path / ("bank%d" % n), edit)
        capsys.readouterr()
        assert run("predict", "--bank", str(path.parent), "--descriptors",
                   str(encoded), "--partition", "test",
                   "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
        assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


def test_predict_rejects_bank_with_integer_kind(corpus, encoded, tmp_path,
                                                capsys):
    # the bank format before the kind was the --model name: an int kind
    # and the Adagrad accumulators beside the weights
    assert run("train", "--descriptors", str(encoded), "--vocab-dir",
               str(corpus), "--out", str(tmp_path / "new"), "--model",
               "logistic", "--iterations", "1") == cli.EXIT_OK

    def old_format(arrays, meta):
        arrays["grad_sq"] = np.ones_like(arrays["weights"])
        meta["params"]["kind"] = 1

    path = _rewrite_bank(tmp_path / "new", tmp_path / "old", old_format)
    capsys.readouterr()
    assert run("predict", "--bank", str(path.parent), "--descriptors",
               str(encoded), "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
    assert str(path) in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


@pytest.mark.parametrize("key", ["level", "feature_dim"])
def test_predict_rejects_index_without_key(encoded, bank, tmp_path, capsys,
                                           key):
    # predict reads these keys of the bank's header; without one it must
    # not guess a default (or die on a KeyError) but exit 2 naming the
    # file and key
    path = _rewrite_bank(bank, tmp_path / "bank",
                         lambda arrays, meta: meta.pop(key))
    capsys.readouterr()
    assert run("predict", "--bank", str(path.parent), "--descriptors",
               str(encoded), "--partition", "test",
               "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(path) in err and "no %s" % key in err
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
    desc = aggregate.read_descriptors(encoded / "test.desc")
    truths = dict(zip(desc.video_ids, label_lists(desc)))
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


# ------------------------------------------- inputs of another feature space

@pytest.fixture(scope="module")
def other_corpus(tmp_path_factory):
    # the shape of `corpus`, drawn from another seed
    out = tmp_path_factory.mktemp("other")
    assert run("gen-synthetic", "--out", str(out), "--seed", "9",
               "--labels", "4", "--videos", "200", "--dim", "8",
               "--frames-min", "4", "--frames-max", "12") == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def other_prep(other_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("other_prep")
    assert run("preprocess", "--data", str(other_corpus),
               "--out", str(out)) == cli.EXIT_OK
    return out


def test_encode_rejects_foreign_transform(preprocessed, other_prep, tmp_path,
                                          capsys):
    # prep features whitened by one transform, next to another corpus's
    # transform.pca of the same shape: encode must not invert with it
    prep = _copy_dir(preprocessed, tmp_path / "prep")
    (prep / "transform.pca").write_bytes(
        (other_prep / "transform.pca").read_bytes())
    capsys.readouterr()
    assert run("encode", "--data", str(prep), "--out", str(tmp_path / "d"),
               "--method", "stats") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(prep / "transform.pca") in err
    assert str(prep / "train.features") in err
    assert not (tmp_path / "d" / "train.desc").exists()


@pytest.mark.parametrize("method", ["stats", "vlad"])
def test_encode_rejects_partitions_of_two_spaces(preprocessed, other_prep,
                                                 tmp_path, capsys, method):
    # a test partition whitened by another corpus's transform: neither the
    # transform nor a codebook fit on train frames applies to it
    prep = _copy_dir(preprocessed, tmp_path / "prep")
    (prep / "test.features").write_bytes(
        (other_prep / "test.features").read_bytes())
    capsys.readouterr()
    assert run("encode", "--data", str(prep), "--out", str(tmp_path / "d"),
               "--method", method, "--clusters", "2") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(prep / "test.features") in err
    assert str(prep / "train.features") in err


def test_encode_rejects_truncated_transform(preprocessed, tmp_path, capsys):
    prep = _copy_dir(preprocessed, tmp_path / "prep")
    blob = (prep / "transform.pca").read_bytes()
    (prep / "transform.pca").write_bytes(blob[:len(blob) - 20])
    capsys.readouterr()
    assert run("encode", "--data", str(prep), "--out", str(tmp_path / "d"),
               "--method", "stats") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(prep / "transform.pca") in err and "truncated" in err


def test_encode_takes_flags_from_the_header(preprocessed, tmp_path):
    # whitened features without their transform.pca are a data error, not
    # a silent switch to encoding the whitened frames
    prep = _copy_dir(preprocessed, tmp_path / "prep")
    os.remove(prep / "transform.pca")
    assert run("encode", "--data", str(prep), "--out", str(tmp_path / "d"),
               "--method", "stats") == cli.EXIT_DATA


def test_predict_rejects_descriptors_of_another_space(
        other_corpus, bank, tmp_path, capsys):
    # the bank was trained on `encoded`, whose normalizer was fit on
    # `corpus`; descriptors of the same width from another corpus's
    # normalizer are another space
    other = tmp_path / "desc"
    assert run("encode", "--data", str(other_corpus), "--out", str(other),
               "--method", "stats") == cli.EXIT_OK
    capsys.readouterr()
    assert run("predict", "--bank", str(bank), "--descriptors", str(other),
               "--partition", "test",
               "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(other / "test.desc") in err
    assert str(bank / cli.BANK_FILE) in err
    assert not (tmp_path / "p.txt").exists()


def test_predict_rejects_frames_of_another_space(
        corpus, preprocessed, other_prep, tmp_path, capsys):
    fbank = tmp_path / "fbank"
    assert run("train", "--data", str(preprocessed), "--vocab-dir",
               str(corpus), "--out", str(fbank), "--model", "logistic",
               "--level", "frame", "--iterations", "1") == cli.EXIT_OK
    assert run("predict", "--bank", str(fbank), "--data", str(preprocessed),
               "--partition", "test",
               "--out", str(tmp_path / "ok.txt")) == cli.EXIT_OK
    capsys.readouterr()
    assert run("predict", "--bank", str(fbank), "--data", str(other_prep),
               "--partition", "test",
               "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(other_prep / "test.features") in err
    assert str(fbank / cli.BANK_FILE) in err
    assert not (tmp_path / "p.txt").exists()


def test_raw_corpora_share_one_space(corpus, other_corpus, tmp_path):
    # generated frames are not whitened: every raw corpus is in the one
    # raw space, so a frame bank of one scores another
    fbank = tmp_path / "fbank"
    assert run("train", "--data", str(corpus), "--out", str(fbank),
               "--model", "logistic", "--level", "frame",
               "--iterations", "1") == cli.EXIT_OK
    assert io.load(fbank / cli.BANK_FILE, "bank").meta["space"] is None
    assert run("predict", "--bank", str(fbank), "--data", str(other_corpus),
               "--partition", "test",
               "--out", str(tmp_path / "p.txt")) == cli.EXIT_OK


def test_predict_rejects_features_of_another_width(corpus, tmp_path, capsys):
    # raw corpora share one space, so only the width tells a raw --dim 4
    # corpus from the --dim 8 one the bank was trained on
    narrow = tmp_path / "narrow"
    assert run("gen-synthetic", "--out", str(narrow), "--seed", "9",
               "--labels", "4", "--videos", "40", "--dim", "4") == cli.EXIT_OK
    fbank = tmp_path / "fbank"
    assert run("train", "--data", str(corpus), "--out", str(fbank),
               "--model", "logistic", "--level", "frame",
               "--iterations", "1") == cli.EXIT_OK
    capsys.readouterr()
    assert run("predict", "--bank", str(fbank), "--data", str(narrow),
               "--out", str(tmp_path / "p.txt")) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert str(narrow / "test.features") in err
    assert str(fbank / cli.BANK_FILE) in err
    assert not (tmp_path / "p.txt").exists()
