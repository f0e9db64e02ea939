"""Command-line pipeline: gen-synthetic, preprocess, encode, train,
predict, evaluate, and oracle subcommands.

Every stage reads and writes files only, so each subcommand is re-runnable
and idempotent for the same inputs. Text artifacts embed the invoking
config hash, and the stages that draw random numbers record their seed.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

from . import aggregate, data, io, metrics, models, preprocess, trainer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

PARTITIONS = ("train", "validate", "test")
BANK_FILE = "bank.bin"
# Fisher and VLAD fit their codebook on at most this many train frames
CODEBOOK_SAMPLE = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _config_hash(args):
    # only semantic parameters are hashed: --workers has no effect on
    # results, and filesystem locations are not configuration
    skip = ("func", "workers", "out", "data", "descriptors", "vocab_dir",
            "bank", "predictions")
    items = sorted((k, repr(v)) for k, v in vars(args).items()
                   if k not in skip)
    blob = ";".join("%s=%s" % kv for kv in items).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_report(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            if isinstance(value, float):
                fh.write("%s=%.10f\n" % (key, value))
            else:
                fh.write("%s=%s\n" % (key, value))


def _read_vocab(dirpath):
    """(label count, path) of `dirpath`'s vocab.txt: one `<label id> <name>`
    line per label, ids 0..L-1 in order, names distinct, at least one."""
    path = os.path.join(dirpath, "vocab.txt")
    names = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2 or not parts[0].isdecimal():
                raise ValueError("%s line %d: expected '<label id> <name>', "
                                 "got %r" % (path, lineno, line.strip()))
            if int(parts[0]) != len(names) or parts[1] in names:
                raise ValueError("%s line %d: label ids must be dense in "
                                 "[0, L) and in order, and names distinct; "
                                 "got %r" % (path, lineno, line.strip()))
            names.add(parts[1])
    if not names:
        raise ValueError("%s: the vocabulary has no label" % path)
    return len(names), path


def _partition_path(dirpath, part, frame_level=True):
    """`dirpath`'s features (frame level) or descriptors of `part`."""
    return os.path.join(dirpath, "%s.%s" % (
        part, "features" if frame_level else "desc"))


def _read_input(args, part, frame_level=None):
    """Partition `part`'s features (frame level: --data) or descriptors
    (video level: --descriptors; with no level, --descriptors if set, else
    --data) and the file's path; a usage error if that flag is unset."""
    if frame_level is None:  # evaluate and oracle take either flag
        if not (args.data or args.descriptors):
            raise UsageError("--data or --descriptors required")
        frame_level = not args.descriptors
    flag = "data" if frame_level else "descriptors"
    if not getattr(args, flag):
        raise UsageError("--%s required at %s level"
                         % (flag, "frame" if frame_level else "video"))
    path = _partition_path(getattr(args, flag), part, frame_level)
    read = data.read_features if frame_level else aggregate.read_descriptors
    return read(path), path


def _truths(partition, path, n_labels, source):
    """The partition's (V, n_labels) truth matrix; a label id outside the
    vocabulary of `source` is a data error naming both files."""
    try:
        return data.label_matrix(partition, n_labels)
    except ValueError as exc:
        raise ValueError("%s: %s of %s" % (path, exc, source)) from None


def _check_space(meta, path, digest, source):
    """A data error naming both files unless `path` is of `source`'s space."""
    if meta.get("space") != digest:
        raise data.DataFormatError(
            "%s is in feature space %s, but %s is for space %s"
            % (path, meta.get("space"), source, digest))


# ---------------------------------------------------------------- commands

def cmd_gen_synthetic(args):
    if args.labels < 1 or args.videos < 1 or args.dim < 1:
        raise UsageError("--labels, --videos, --dim must be >= 1")
    for flag in ("separation", "scale"):
        if not np.isfinite(getattr(args, flag)):
            raise UsageError("--%s must be finite" % flag)
    if args.scale <= 0:
        raise UsageError("--scale must be positive")
    if args.frames_min < 1 or args.frames_max < args.frames_min:
        raise UsageError("--frames-min must be >= 1 and --frames-max >= "
                         "--frames-min")
    os.makedirs(args.out, exist_ok=True)
    corpus = data.generate_synthetic(args.seed, args.labels, args.videos,
                                     args.dim, separation=args.separation,
                                     scale=args.scale,
                                     frames_min=args.frames_min,
                                     frames_max=args.frames_max)
    with open(os.path.join(args.out, "vocab.txt"), "w", encoding="utf-8") as fh:
        fh.writelines("%d label_%04d\n" % (i, i) for i in range(args.labels))

    # 70 : 20 : 10 split by count, assigned round-robin-free by position
    n = len(corpus)
    n_train = int(round(n * 0.7))
    n_val = int(round(n * 0.2))
    splits = {
        "train": corpus.slice(0, n_train),
        "validate": corpus.slice(n_train, n_train + n_val),
        "test": corpus.slice(n_train + n_val, n),
    }
    meta = {"seed": args.seed, "config_hash": _config_hash(args),
            "labels": args.labels, "whitened": False, "quantized": False,
            "space": None}
    for part in PARTITIONS:
        data.write_features(splits[part], _partition_path(args.out, part),
                            meta)
    return EXIT_OK


def cmd_preprocess(args):
    fit, _ = _read_input(args, "train", True)
    if not 0 <= args.dim_out <= fit.dim:
        raise UsageError("--dim-out must be in [1, %d], the frames' "
                         "dimension (0 keeps it)" % fit.dim)
    d_out = args.dim_out or fit.dim
    os.makedirs(args.out, exist_ok=True)

    transform = preprocess.fit_whitening(fit.frames, d_out)
    space = preprocess.save_transform(transform,
                                      os.path.join(args.out, "transform.pca"))

    fit_z = preprocess.apply_whitening(transform, fit.frames)
    quantizer = preprocess.fit_quantizer(fit_z)
    quantizer_sha = preprocess.save_quantizer(
        quantizer, os.path.join(args.out, "quantizer.qnt"))

    chash = _config_hash(args)
    meta = {"config_hash": chash, "whitened": True, "quantized": True,
            "space": space, "quantizer": quantizer_sha}
    roundtrip_num = roundtrip_den = 0.0
    for part in PARTITIONS:
        # whiten and quantize the partition's frames in one pass
        if part == "train":
            partition, z, fit, fit_z = fit, fit_z, None, None
        else:
            partition, _ = _read_input(args, part, True)
            z = preprocess.apply_whitening(transform, partition.frames)
        video_ids, offsets = partition.video_ids, partition.offsets
        labels, label_offsets = partition.labels, partition.label_offsets
        del partition  # the input frames are not needed past whitening
        z_q = preprocess.dequantize(quantizer, preprocess.quantize(quantizer, z))
        roundtrip_den += float(np.vdot(z, z))
        z -= z_q  # the round-trip error, in place: no temporary of z's size
        roundtrip_num += float(np.vdot(z, z))
        z = z_q
        data.write_features(
            data.Partition(video_ids, z.astype(np.float32), offsets, labels,
                           label_offsets),
            _partition_path(args.out, part), meta)

    pairs = [("config_hash", chash), ("dim_out", d_out), ("quantized", 1)]
    if roundtrip_den > 0:
        pairs.append(("quantization_relative_rmse",
                      float(np.sqrt(roundtrip_num / roundtrip_den))))
    _write_report(os.path.join(args.out, "report.txt"), pairs)
    return EXIT_OK


def cmd_encode(args):
    from . import encoders   # only encode fits and applies a codebook

    for flag in ("topk", "mixtures", "clusters"):
        if getattr(args, flag) < 1:
            raise UsageError("--%s must be >= 1" % flag)
    os.makedirs(args.out, exist_ok=True)
    partitions = {part: _read_input(args, part, True)[0]
                  for part in PARTITIONS}
    train = partitions["train"]
    train_path = _partition_path(args.data, "train")
    for part in PARTITIONS:  # one space: the one train's codebook is fit in
        _check_space(partitions[part].meta, _partition_path(args.data, part),
                     train.meta.get("space"), train_path)
    if args.method == "stats":
        # std and Top_K are more meaningful in the original activation
        # space, so whitened inputs are mapped back before aggregation
        transform = None
        if train.meta.get("whitened"):
            path = os.path.join(args.data, "transform.pca")
            transform, digest = preprocess.load_transform(path)
            _check_space(train.meta, train_path, digest, path)
        encode = lambda p: aggregate.encode_stats(p.frames, p.offsets,
                                                  args.topk, transform)
        extras = {"reconstructed": int(transform is not None),
                  "quantized_input": int(bool(train.meta.get("quantized")))}
    else:
        sample = train.frames
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xE4C]))
        if len(sample) > CODEBOOK_SAMPLE:
            sample = sample[np.sort(rng.choice(
                len(sample), CODEBOOK_SAMPLE, replace=False))]
        if args.method == "fisher":
            gmm = encoders.fit_gmm(sample, args.mixtures, seed=args.seed)
            space = encoders.save_gmm(gmm,
                                      os.path.join(args.out, "codebook.gmm"))
            encode = lambda p: encoders.encode_fisher(p.frames, gmm, p.offsets)
            extras = {"mixtures": args.mixtures}
        else:
            km = encoders.fit_kmeans(sample, args.clusters, seed=args.seed)
            space = encoders.save_kmeans(km,
                                         os.path.join(args.out, "codebook.kms"))
            encode = lambda p: encoders.encode_vlad(p.frames, km, p.offsets)
            extras = {"clusters": args.clusters}

    encoded = {part: encode(p) for part, p in partitions.items()}
    if args.method == "stats":
        normalizer = aggregate.fit_global_normalizer(encoded["train"])
        space = preprocess.save_transform(
            normalizer, os.path.join(args.out, "normalizer.pca"))
        encoded = {part: preprocess.unit_rows(
                       preprocess.apply_whitening(normalizer, descs))
                   for part, descs in encoded.items()}

    # only Fisher and VLAD draw random numbers, so only they record the seed
    seed = {} if args.method == "stats" else {"seed": args.seed}
    chash = _config_hash(args)
    meta = dict(seed, config_hash=chash, method=args.method, space=space)
    for part, mat in encoded.items():
        aggregate.write_descriptors(_partition_path(args.out, part, False),
                                    partitions[part], mat, meta)
    pairs = [("config_hash", chash), *seed.items(), ("method", args.method),
             ("descriptor_dim", encoded["train"].shape[1])]
    pairs += sorted(extras.items())
    _write_report(os.path.join(args.out, "report.txt"), pairs)
    return EXIT_OK


def _training_data(args, frame_level):
    """The train partition's examples with a bias column, their (N, L)
    bool targets over the vocabulary, and its feature space. A video's
    examples are its descriptor row at video level, and at frame level a
    sample of its frames, L2-normalized."""
    partition, path = _read_input(args, "train", frame_level)
    vocab_dir = args.vocab_dir or args.data or args.descriptors
    x, y = partition.frames, _truths(partition, path, *_read_vocab(vocab_dir))
    if frame_level:
        x, video_index = trainer.expand_frame_examples(
            partition, args.frames_per_video, seed=args.seed)
        x, y = preprocess.unit_rows(x), y[video_index]
    return models.add_bias(x), y, partition.meta.get("space")


def cmd_train(args):
    for flag in ("lr", "iterations", "sample_cap", "mixtures"):
        if getattr(args, flag) <= 0:
            raise UsageError("--%s must be positive"
                             % flag.replace("_", "-"))
    if args.batch_size < 0:
        raise UsageError("--batch-size must be positive, or 0 for the "
                         "level's default")
    if min(args.workers, args.frames_per_video) < 1:
        raise ValueError("--workers and --frames-per-video must be >= 1")
    frame_level = args.level == "frame"
    x, y, space = _training_data(args, frame_level)

    cfg = trainer.TrainerConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size or (1 if frame_level else 32),
        l2=args.l2,
        iterations=args.iterations,
        sample_cap=args.sample_cap,
        seed=args.seed,
        model_kind=args.model,
        n_experts=args.mixtures,
        hinge_margin=args.hinge_margin,
    )
    results = trainer.train_all(x, y, cfg, workers=args.workers)
    trained = [res for res in results.values() if not res.skipped]
    if not trained and np.any(y.any(axis=0) & ~y.all(axis=0)):
        raise trainer.TrainingError("every label with both classes diverged")

    # the trained labels' stacked models, ids and whole loss traces, the
    # skipped labels' reasons, and the training input's feature space
    arrays = {"label_ids": np.array([res.label_id for res in trained],
                                    dtype=np.int64),
              "loss_traces": np.reshape([res.loss_trace for res in trained],
                                        (len(trained), cfg.iterations + 1))}
    meta = {"config_hash": _config_hash(args), "seed": args.seed,
            "level": args.level, "model": args.model,
            "feature_dim": x.shape[1] - 1, "labels": y.shape[1], "space": space,
            "skipped": [[res.label_id, res.reason]
                        for res in results.values() if res.skipped]}
    if trained:
        model_arrays, meta["params"] = models.serialize_model(
            models.stack_models([res.model for res in trained]))
        arrays.update(model_arrays)
    os.makedirs(args.out, exist_ok=True)
    io.save(os.path.join(args.out, BANK_FILE), "bank", arrays, meta)
    return EXIT_OK


def _load_bank(path):
    """The LabelBank of the bank file at `path` (None when it trained no
    label) and its header meta, checked: the keys predict reads, and a
    model for each of its strictly increasing label ids in the vocabulary."""
    arrays, meta, _ = io.load(path, "bank")
    for key in ("level", "feature_dim", "labels", "space"):
        if key not in meta:
            raise data.DataFormatError("%s: the header has no %s" % (path, key))
    label_ids = arrays.get("label_ids", np.empty(0, dtype=np.int64))
    if not len(label_ids):
        return None, meta
    try:
        model = models.deserialize_model(arrays, meta.get("params", {}))
    except ValueError as exc:
        raise data.DataFormatError("%s: %s" % (path, exc)) from exc
    if (model.n_labels != len(label_ids) or np.any(np.diff(label_ids) <= 0)
            or not 0 <= label_ids[0] <= label_ids[-1] < meta["labels"]):
        raise data.DataFormatError(
            "%s: %d models for label ids %s, which must be strictly "
            "increasing in [0, %d)" % (path, model.n_labels,
                                       label_ids.tolist(), meta["labels"]))
    return trainer.LabelBank(model, label_ids), meta


def cmd_predict(args):
    bank_path = os.path.join(args.bank, BANK_FILE)
    bank, meta = _load_bank(bank_path)
    frame_level = meta["level"] == "frame"
    inputs, path = _read_input(args, args.partition, frame_level)
    _check_space(inputs.meta, path, meta["space"], bank_path)
    x = inputs.frames.astype(np.float64)
    if meta["feature_dim"] != x.shape[1]:
        raise data.DataFormatError(
            "%s has %d features per row, but %s was trained on %d"
            % (path, x.shape[1], bank_path, meta["feature_dim"]))
    if bank is None:  # every label was skipped: all of them score 0
        scores = np.zeros((len(inputs.video_ids), meta["labels"]))
    elif not frame_level:
        scores = trainer.predict_video_level(bank, x, meta["labels"])
    else:
        scores = trainer.predict_video_frame_level(
            bank, preprocess.unit_rows(x), inputs.offsets, meta["labels"])
    pset = metrics.PredictionSet(
        video_ids=inputs.video_ids, scores=scores,
        truths=_truths(inputs, path, meta["labels"], bank_path))
    metrics.write_predictions(pset, args.out)
    return EXIT_OK


def cmd_evaluate(args):
    pset = metrics.read_predictions(args.predictions,
                                    _read_input(args, args.partition)[0])
    pairs = [("config_hash", _config_hash(args))]
    pairs += sorted(metrics.evaluate(pset).items())
    _write_report(args.out, pairs)
    for key, value in pairs:
        print("%s=%s" % (key, value))
    return EXIT_OK


def cmd_oracle(args):
    from . import reference  # only oracle runs the brute-force metrics

    pset = metrics.read_predictions(args.predictions,
                                    _read_input(args, args.partition)[0])
    fast_map, _, _ = metrics.mean_average_precision(pset)
    slow_map, _, _ = reference.brute_force_mean_ap(pset)
    rows = [("mAP", fast_map, slow_map)]
    for k in metrics.HIT_KS:
        rows.append(("Hit@%d" % k, metrics.hit_at_k(pset, k),
                     reference.brute_force_hit_at_k(pset, k)))
    rows.append(("PERR", metrics.perr(pset), reference.brute_force_perr(pset)))
    ok = True
    for name, fast, slow in rows:
        match = fast == slow
        ok = ok and match
        print("%s fast=%.10f oracle=%.10f %s"
              % (name, fast, slow, "OK" if match else "MISMATCH"))
    return EXIT_OK if ok else EXIT_NUMERIC


# ----------------------------------------------------------------- parser

def build_parser():
    parser = _Parser(prog="vidbase", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labels", type=int, default=8)
    p.add_argument("--videos", type=int, default=2000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--separation", type=float, default=5.0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--frames-min", type=int, default=5)
    p.add_argument("--frames-max", type=int, default=30)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("preprocess", help="fit and apply PCA whitening + quantization")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim-out", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("encode", help="build video-level descriptors")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True, choices=("stats", "fisher", "vlad"))
    p.add_argument("--topk", type=int, default=aggregate.DEFAULT_TOP_K)
    p.add_argument("--mixtures", type=int, default=4)
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="train per-label classifiers")
    p.add_argument("--data")
    p.add_argument("--descriptors")
    p.add_argument("--vocab-dir")
    p.add_argument("--out", required=True)
    p.add_argument("--model", default="moe", choices=("logistic", "hinge", "moe"))
    p.add_argument("--level", default="video", choices=("frame", "video"))
    p.add_argument("--mixtures", type=int, default=2)
    p.add_argument("--lr", type=float, default=1.0)
    p.add_argument("--batch-size", type=int, default=0)
    p.add_argument("--l2", type=float, default=1e-6)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--sample-cap", type=int, default=trainer.DEFAULT_SAMPLE_CAP)
    p.add_argument("--frames-per-video", type=int, default=20)
    p.add_argument("--hinge-margin", type=float, default=1.0)
    p.add_argument("--workers", type=int, default=1,
                   help="threads that train blocks of labels; the bank is "
                        "the same for every value")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a partition with a model bank")
    p.add_argument("--bank", required=True)
    p.add_argument("--data")
    p.add_argument("--descriptors")
    p.add_argument("--partition", default="test", choices=PARTITIONS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="compute mAP / Hit@k / PERR")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data")
    p.add_argument("--descriptors")
    p.add_argument("--partition", default="test", choices=PARTITIONS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("oracle", help="cross-check metrics against brute force")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data")
    p.add_argument("--descriptors")
    p.add_argument("--partition", default="test", choices=PARTITIONS)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, ValueError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except (trainer.TrainingError, metrics.MetricError,
            preprocess.RankError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
