"""Command-line pipeline: gen-synthetic, preprocess, encode, train,
predict, evaluate, and oracle subcommands.

Every stage reads and writes files only, so each subcommand is re-runnable
and idempotent for the same inputs. Text artifacts embed the invoking
config hash and seed.
"""

import argparse
import hashlib
import os
import sys

import numpy as np

from . import aggregate, data, encoders, metrics, models, preprocess
from . import reference, trainer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

PARTITIONS = ("train", "validate", "test")


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
    path = os.path.join(dirpath, "vocab.txt")
    labels = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2 or not parts[0].isdecimal():
                raise ValueError("%s line %d: expected '<label id> <name>', "
                                 "got %r" % (path, lineno, line.strip()))
            labels.append((int(parts[0]), parts[1]))
    try:
        return data.LabelVocabulary(tuple(labels))
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from exc


def _features_path(dirpath, part):
    return os.path.join(dirpath, "%s.features" % part)


def _load_partition(dirpath, part):
    path = _features_path(dirpath, part)
    if not os.path.exists(path):
        raise FileNotFoundError("missing feature file %s" % path)
    return data.read_features(path)


def _write_labels(path, partition):
    with open(path, "w", encoding="utf-8") as fh:
        for vid, labs in zip(partition.video_ids, partition.labels):
            fh.write("%s %s\n" % (vid, ",".join(str(l) for l in sorted(labs))))


def _read_labels(path):
    """{video id: frozenset of label ids}; a label id that is not an
    integer or a video listed twice is a data error naming file and line."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            vid = parts[0]
            if vid in out:
                raise ValueError("%s line %d: video %s is listed twice"
                                 % (path, lineno, vid))
            try:
                out[vid] = frozenset(int(x) for x in parts[1].split(",")) \
                    if len(parts) > 1 and parts[1] else frozenset()
            except ValueError:
                raise ValueError("%s line %d: label ids must be integers, "
                                 "got %r" % (path, lineno, parts[1])) from None
    return out


# ---------------------------------------------------------------- commands

def cmd_gen_synthetic(args):
    if args.labels < 1 or args.videos < 1 or args.dim < 1:
        raise UsageError("--labels, --videos, --dim must be >= 1")
    os.makedirs(args.out, exist_ok=True)
    spec = data.ClusterSpec.separated(args.seed, args.labels, args.dim,
                                      separation=args.separation,
                                      scale=args.scale)
    corpus = data.generate_synthetic(args.seed, args.labels, args.videos,
                                     args.dim, spec,
                                     frames_min=args.frames_min,
                                     frames_max=args.frames_max)
    vocab = data.LabelVocabulary.trivial(args.labels)
    with open(os.path.join(args.out, "vocab.txt"), "w", encoding="utf-8") as fh:
        for lid, name in vocab.labels:
            fh.write("%d %s\n" % (lid, name))

    # 70 : 20 : 10 split by count, assigned round-robin-free by position
    n = len(corpus)
    n_train = int(round(n * 0.7))
    n_val = int(round(n * 0.2))
    splits = {
        "train": corpus.slice(0, n_train),
        "validate": corpus.slice(n_train, n_train + n_val),
        "test": corpus.slice(n_train + n_val, n),
    }
    chash = _config_hash(args)
    for part in PARTITIONS:
        manifest = data.write_features(splits[part],
                                       _features_path(args.out, part),
                                       name=part)
        manifest.extra = {"seed": str(args.seed), "config_hash": chash,
                          "labels": str(args.labels)}
        manifest.write(os.path.join(args.out, "%s.manifest" % part))
    return EXIT_OK


def cmd_preprocess(args):
    if args.fit_partition != "train" and not args.allow_fit_partition:
        raise UsageError("fitting on %r leaks evaluation data; pass "
                         "--allow-fit-partition to override" % args.fit_partition)
    os.makedirs(args.out, exist_ok=True)
    fit = _load_partition(args.data, args.fit_partition)
    d_out = args.dim_out or fit.dim

    transform = preprocess.fit_whitening(fit.frames, d_out)
    preprocess.save_transform(transform, os.path.join(args.out, "transform.pca"))

    fit_z = preprocess.apply_whitening(transform, fit.frames,
                                       l2_normalize=False)
    quantizer = None
    if args.quantize:
        quantizer = preprocess.fit_quantizer(fit_z)
        preprocess.save_quantizer(quantizer,
                                  os.path.join(args.out, "quantizer.qnt"))

    chash = _config_hash(args)
    roundtrip_num = roundtrip_den = 0.0
    for part in PARTITIONS:
        # whiten, and quantize when asked, the partition's frames in one pass
        if part == args.fit_partition:
            partition, z, fit, fit_z = fit, fit_z, None, None
        else:
            partition = _load_partition(args.data, part)
            z = preprocess.apply_whitening(transform, partition.frames,
                                           l2_normalize=False)
        video_ids, offsets = partition.video_ids, partition.offsets
        labels = partition.labels
        del partition  # the input frames are not needed past whitening
        if quantizer is not None:
            z_q = preprocess.dequantize(quantizer,
                                        preprocess.quantize(quantizer, z))
            roundtrip_den += float(np.vdot(z, z))
            z -= z_q  # the round-trip error, in place: no temporary of z's size
            roundtrip_num += float(np.vdot(z, z))
            z = z_q
        manifest = data.write_features(
            data.Partition(video_ids, z.astype(np.float32), offsets, labels),
            _features_path(args.out, part), name=part)
        manifest.extra = {"seed": str(args.seed), "config_hash": chash,
                          "whitened": "1",
                          "quantized": "1" if quantizer is not None else "0"}
        manifest.write(os.path.join(args.out, "%s.manifest" % part))

    pairs = [("config_hash", chash), ("seed", args.seed), ("dim_out", d_out),
             ("quantized", int(args.quantize))]
    if quantizer is not None and roundtrip_den > 0:
        pairs.append(("quantization_relative_rmse",
                      float(np.sqrt(roundtrip_num / roundtrip_den))))
    _write_report(os.path.join(args.out, "report.txt"), pairs)
    return EXIT_OK


def _describe(partition, describe, width):
    """(V, width) matrix of describe(frames) over the partition's videos."""
    out = np.empty((len(partition), width))
    for i, frames in enumerate(partition.videos()):
        out[i] = describe(frames)
    return out


def _encode_stats(args, partitions):
    transform_path = os.path.join(args.data, "transform.pca")
    quantizer_path = os.path.join(args.data, "quantizer.qnt")
    reconstructing = os.path.exists(transform_path)
    transform = preprocess.load_transform(transform_path) if reconstructing else None

    def describe(frames):
        # std and Top_K are more meaningful in the original activation
        # space, so whitened inputs are mapped back before aggregation
        if reconstructing:
            frames = preprocess.invert_whitening(transform, frames)
        return aggregate.build_descriptor(frames, k=args.topk)

    dim = transform.dim if reconstructing else partitions["train"].dim
    layout = aggregate.descriptor_layout(dim, args.topk)
    width = (2 + args.topk) * dim
    descriptors = {part: _describe(partition, describe, width)
                   for part, partition in partitions.items()}
    normalizer = aggregate.fit_global_normalizer(descriptors["train"])
    preprocess.save_transform(normalizer,
                              os.path.join(args.out, "normalizer.pca"))
    out = {part: (preprocess.apply_whitening(normalizer, descs,
                                             l2_normalize=True), layout)
           for part, descs in descriptors.items()}
    extras = {"reconstructed": "1" if reconstructing else "0",
              "quantized_input": "1" if os.path.exists(quantizer_path) else "0"}
    return out, extras


def _encode_codebook(args, partitions):
    train_frames = partitions["train"].frames
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xE4C]))
    if len(train_frames) > args.codebook_sample:
        pick = np.sort(rng.choice(len(train_frames), args.codebook_sample,
                                  replace=False))
        train_frames = train_frames[pick]

    if args.method == "fisher":
        gmm = encoders.fit_gmm(train_frames, args.mixtures, seed=args.seed)
        encoders.save_gmm(gmm, os.path.join(args.out, "codebook.gmm"))
        encode = lambda p: encoders.encode_fisher(p.frames, gmm, p.offsets)
        dim = 2 * args.mixtures * train_frames.shape[1]
        extras = {"mixtures": str(args.mixtures)}
    else:
        km = encoders.fit_kmeans(train_frames, args.clusters, seed=args.seed)
        encoders.save_kmeans(km, os.path.join(args.out, "codebook.kms"))
        encode = lambda p: encoders.encode_vlad(p.frames, km, p.offsets)
        dim = args.clusters * train_frames.shape[1]
        extras = {"clusters": str(args.clusters)}

    layout = ((args.method, 0, dim),)
    out = {part: (encode(partition), layout)
           for part, partition in partitions.items()}
    return out, extras


def cmd_encode(args):
    os.makedirs(args.out, exist_ok=True)
    partitions = {part: _load_partition(args.data, part)
                  for part in PARTITIONS}
    if args.method == "stats":
        encoded, extras = _encode_stats(args, partitions)
    else:
        encoded, extras = _encode_codebook(args, partitions)

    chash = _config_hash(args)
    for part, (mat, layout) in encoded.items():
        aggregate.write_descriptors(os.path.join(args.out, "%s.desc" % part),
                                    partitions[part].video_ids, mat, layout)
        _write_labels(os.path.join(args.out, "%s.labels" % part),
                      partitions[part])
    pairs = [("config_hash", chash), ("seed", args.seed),
             ("method", args.method),
             ("descriptor_dim", encoded["train"][0].shape[1])]
    pairs += sorted(extras.items())
    _write_report(os.path.join(args.out, "report.txt"), pairs)
    return EXIT_OK


def _l2_normalize_rows(x):
    """Scale each row to unit L2 norm; all-zero rows stay zero."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0.0, 1.0, norms)


def _frame_training_data(args, vocab):
    partition = _load_partition(args.data, "train")
    frames, video_index = trainer.expand_frame_examples(
        partition, args.frames_per_video, seed=args.seed)
    if args.l2_normalize:
        frames = _l2_normalize_rows(frames)
    return (models.add_bias(frames),
            data.label_matrix(partition.labels, vocab.size)[video_index])


def _video_training_data(args, vocab):
    vids, mat, _ = aggregate.read_descriptors(
        os.path.join(args.descriptors, "train.desc"))
    path = os.path.join(args.descriptors, "train.labels")
    truths = _read_labels(path)
    missing = next((vid for vid in vids if vid not in truths), None)
    if missing is not None:
        raise ValueError("%s: no labels for video %s of train.desc"
                         % (path, missing))
    label_sets = [truths[vid] for vid in vids]
    return models.add_bias(mat), data.label_matrix(label_sets, vocab.size)


def cmd_train(args):
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    vocab = _read_vocab(args.vocab_dir or args.data or args.descriptors)
    if args.level == "frame":
        if not args.data:
            raise UsageError("--data required for frame-level training")
        x, y = _frame_training_data(args, vocab)
        batch_default = 1
    else:
        if not args.descriptors:
            raise UsageError("--descriptors required for video-level training")
        x, y = _video_training_data(args, vocab)
        batch_default = 32

    cfg = trainer.TrainerConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size or batch_default,
        l2=args.l2,
        iterations=args.iterations,
        sample_cap=args.sample_cap,
        frames_per_video=args.frames_per_video,
        seed=args.seed,
        model_kind=args.model,
        n_experts=args.mixtures,
        hinge_margin=args.hinge_margin,
    )
    results = trainer.train_all(vocab, x, y, cfg, workers=args.workers)

    os.makedirs(args.out, exist_ok=True)
    chash = _config_hash(args)
    index_lines = ["config_hash=%s" % chash, "seed=%d" % args.seed,
                   "level=%s" % args.level, "model=%s" % args.model,
                   "l2_normalize=%d" % int(args.l2_normalize),
                   "feature_dim=%d" % (x.shape[1] - 1)]
    for label_id in sorted(results):
        res = results[label_id]
        if res.skipped:
            index_lines.append("skip %d %s" % (label_id, res.reason))
            continue
        fname = "model_%04d.bin" % label_id
        with open(os.path.join(args.out, fname), "wb") as fh:
            fh.write(models.serialize_model(res.model))
        index_lines.append("model %d %s final_loss=%.10f steps=%d"
                           % (label_id, fname, res.loss_trace[-1],
                              len(res.loss_trace) - 1))
    with open(os.path.join(args.out, "index.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(index_lines) + "\n")
    return EXIT_OK


def _load_bank(bank_dir):
    """The bank's models stacked into one `trainer.LabelBank`, its label
    count (every label of index.txt, trained or skipped) and the key=value
    lines of index.txt. Models that cannot be stacked (another kind,
    feature dim, expert count, l2 or margin) are a data error naming the
    first mismatching file, and so is an index.txt without the level,
    l2_normalize or feature_dim that predict reads."""
    label_ids, loaded, paths, meta, n_labels = [], [], [], {}, 0
    index = os.path.join(bank_dir, "index.txt")
    with open(index, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] in ("model", "skip"):
                label_id = int(parts[1])
                n_labels = max(n_labels, label_id + 1)
            if parts[0] == "model":
                path = os.path.join(bank_dir, parts[2])
                with open(path, "rb") as mf:
                    blob = mf.read()
                try:
                    loaded.append(models.deserialize_model(blob))
                except models.ModelFormatError as exc:
                    raise models.ModelFormatError("%s: %s" % (path, exc)) \
                        from exc
                label_ids.append(label_id)
                paths.append(path)
            elif "=" in parts[0]:
                key, _, value = parts[0].partition("=")
                meta[key] = value
    for key in ("level", "l2_normalize", "feature_dim"):
        if key not in meta:
            raise data.DataFormatError("%s: no %s= line" % (index, key))
    if not loaded:
        return None, n_labels, meta
    stacked = models.stack_models(loaded, names=paths)
    return trainer.LabelBank(stacked, np.array(label_ids)), n_labels, meta


def cmd_predict(args):
    bank, n_labels, meta = _load_bank(args.bank)
    if bank is None:
        raise UsageError("model bank %s is empty" % args.bank)
    if meta["level"] == "frame":
        partition = _load_partition(args.data, args.partition)
        if int(meta["feature_dim"]) != partition.dim:
            raise UsageError("bank feature_dim does not match data")
        frames = partition.frames.astype(np.float64)
        if meta["l2_normalize"] == "1":
            frames = _l2_normalize_rows(frames)
        video_ids = partition.video_ids
        scores = trainer.predict_video_frame_level(
            bank, frames, partition.offsets, n_labels)
    else:
        video_ids, mat, _ = aggregate.read_descriptors(
            os.path.join(args.descriptors, "%s.desc" % args.partition))
        if int(meta["feature_dim"]) != mat.shape[1]:
            raise UsageError("bank feature_dim does not match descriptors")
        scores = trainer.predict_video_level(bank, mat, n_labels)

    pset = metrics.PredictionSet(video_ids=video_ids, scores=scores,
                                 truths=[frozenset()] * len(video_ids))
    metrics.write_predictions(pset, args.out)
    return EXIT_OK


def _truths_for_partition(args):
    if args.descriptors:
        return _read_labels(os.path.join(args.descriptors,
                                         "%s.labels" % args.partition))
    partition = _load_partition(args.data, args.partition)
    return dict(zip(partition.video_ids, partition.labels))


def cmd_evaluate(args):
    truths = _truths_for_partition(args)
    pset = metrics.read_predictions(args.predictions, truths_by_video=truths)
    n_labels = max((max(g, default=-1) for g in truths.values()), default=-1) + 1
    if n_labels > pset.n_labels:
        raise ValueError("%s: prediction file covers %d labels but ground "
                         "truth has %d" % (args.predictions, pset.n_labels,
                                           n_labels))
    ks = tuple(int(k) for k in args.hit_k.split(","))
    report = metrics.evaluate(pset, hit_ks=ks)
    pairs = [("config_hash", _config_hash(args)),
             ("seed", args.seed)]
    pairs += sorted(report.as_dict().items())
    _write_report(args.out, pairs)
    for key, value in pairs:
        print("%s=%s" % (key, value))
    return EXIT_OK


def cmd_oracle(args):
    truths = _truths_for_partition(args)
    pset = metrics.read_predictions(args.predictions, truths_by_video=truths)
    fast_map, _, _ = metrics.mean_average_precision(pset)
    slow_map, _, _ = reference.brute_force_mean_ap(pset)
    rows = [("mAP", fast_map, slow_map)]
    for k in (1, 5):
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
    p.add_argument("--no-quantize", dest="quantize", action="store_false")
    p.add_argument("--fit-partition", default="train", choices=PARTITIONS)
    p.add_argument("--allow-fit-partition", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("encode", help="build video-level descriptors")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", required=True, choices=("stats", "fisher", "vlad"))
    p.add_argument("--topk", type=int, default=aggregate.DEFAULT_TOP_K)
    p.add_argument("--mixtures", type=int, default=4)
    p.add_argument("--clusters", type=int, default=8)
    p.add_argument("--codebook-sample", type=int, default=100_000)
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
    p.add_argument("--no-l2-normalize", dest="l2_normalize", action="store_false")
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
    p.add_argument("--hit-k", default="1,5")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
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
    except (data.DataFormatError, models.ModelFormatError, FileNotFoundError,
            ValueError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except (trainer.TrainingError, metrics.MetricError,
            preprocess.RankError, np.linalg.LinAlgError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
