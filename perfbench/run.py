#!/usr/bin/env python3
"""Pipeline benchmark for vidbase.

Generates a workload's synthetic corpus from --seed, then runs its stage
chain (preprocess, encode, train, predict, evaluate) as separate vidbase
CLI processes, one after another, for --seconds seconds. Prints the
end-to-end metrics (--trace 0) or the per-layer metrics of one traced
chain (--trace 1) as the last line of standard output:

    python3 perfbench/run.py --workload frame --seed 7 --seconds 30 --trace 0

See perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "vidbase")
WORK = os.path.join(ROOT, ".perfbench-work")
STAGE = os.path.join(HERE, "stage.py")

STAGES = ("preprocess", "encode", "train", "predict", "evaluate")
FEATURIZE = ("preprocess", "encode")
# A run generates SETUPS corpora of the workload's shape, from --seed and
# --seed + k * CORPUS_SEED_STEP, and its chains take them in turn: the EM
# and k-means iteration counts of the encoders depend on the corpus, so a
# run's median over several corpora moves less from seed to seed.
SETUPS = 3
CORPUS_SEED_STEP = 1000
# Fixed times near those of the two parts of stage.reference_work
# (interpreter-bound, vectorized) on the 2-core machine the benchmark was
# written on; scaled times are given at this speed.
REF_NOMINAL_S = 0.05
VREF_NOMINAL_S = 0.05
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIB = float(1 << 20)

# Hit@1 floors. frame: acceptance criterion 7. fisher-moe and wide: below
# the lowest value the seed commit gave over the seeds tried (0.905, 0.834),
# as Hit@1 moves with the corpus seed (see README.md).
WORKLOADS = {
    "frame": {
        "labels": 8, "videos": 2000, "workers": 1, "hit1_floor": 0.85,
        "encode": None,
        "train": ["--level", "frame", "--model", "logistic",
                  "--iterations", "3"],
    },
    "fisher-moe": {
        "labels": 8, "videos": 2000, "workers": 1, "hit1_floor": 0.85,
        "encode": ["--method", "fisher", "--mixtures", "4"],
        "train": ["--level", "video", "--model", "moe", "--mixtures", "2",
                  "--iterations", "10"],
    },
    "wide": {
        "labels": 400, "videos": 8000, "workers": 2, "hit1_floor": 0.80,
        "encode": ["--method", "stats", "--topk", "5"],
        "train": ["--level", "video", "--model", "logistic",
                  "--iterations", "2"],
    },
}

END_TO_END = (("pipeline_s", "s"), ("featurize_s", "s"), ("train_s", "s"),
              ("score_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("mAP", "ratio"), ("hit_at_1", "ratio"), ("perr", "ratio"))

# (module.function, quantities) reported from the traced chain
LAYER_SPANS = (
    ("data.read_features", ("calls", "self_s")),
    ("data.write_features", ("calls", "self_s")),
    ("preprocess.fit_whitening", ("calls", "self_s")),
    ("preprocess.fit_quantizer", ("calls", "self_s")),
    ("preprocess.apply_whitening", ("calls", "self_s")),
    ("preprocess.quantize", ("calls", "self_s")),
    ("preprocess.dequantize", ("calls", "self_s")),
    ("preprocess.invert_whitening", ("calls", "self_s")),
    ("aggregate.build_descriptor", ("calls", "self_s")),
    ("aggregate.fit_global_normalizer", ("self_s",)),
    ("aggregate.read_descriptors", ("calls", "self_s")),
    ("aggregate.write_descriptors", ("self_s",)),
    ("encoders.fit_kmeans", ("self_s",)),
    ("encoders.fit_gmm", ("self_s",)),
    ("encoders.encode_fisher", ("calls", "self_s")),
    ("encoders.gmm_posteriors", ("calls", "self_s")),
    ("models.logistic_predict", ("calls", "self_s")),
    ("models.moe_gating", ("calls", "self_s")),
    ("models.moe_predict", ("calls", "self_s")),
    ("models.moe_gradients_batch", ("calls", "self_s")),
    ("models.predict", ("calls", "self_s")),
    ("models.serialize_model", ("calls", "self_s")),
    ("models.deserialize_model", ("calls", "self_s")),
    ("trainer.train_all", ("self_s",)),
    ("trainer.train_label", ("calls", "self_s")),
    ("trainer.build_sampling_plan", ("calls", "self_s")),
    ("trainer.expand_frame_examples", ("self_s",)),
    ("trainer.predict_video_level", ("calls", "self_s")),
    ("trainer.predict_video_frame_level", ("calls", "self_s")),
    ("metrics.evaluate", ("self_s",)),
    ("metrics.mean_average_precision", ("self_s",)),
    ("metrics.hit_at_k", ("calls", "self_s")),
    ("metrics.perr", ("self_s",)),
    ("metrics.read_predictions", ("self_s",)),
    ("metrics.write_predictions", ("self_s",)),
)
LAYER_COUNTS = (
    ("data.read_features.mib", "MiB"), ("data.write_features.mib", "MiB"),
    ("preprocess.invert_whitening.pinv_per_transform", "ratio"),
    ("aggregate.write_descriptors.mib", "MiB"),
    ("encoders.fit_kmeans.iterations", "count"),
    ("encoders.fit_gmm.iterations", "count"),
    ("encoders.fit_gmm.tensor_mib", "MiB"),
    ("trainer.sampled_examples", "count"), ("trainer.updates", "count"),
    ("trainer.update_us", "us"), ("trainer.labels_skipped", "count"),
    ("metrics.write_predictions.mib", "MiB"),
    ("reference.oracle_s", "s"),
    ("trace.pipeline_s", "s"), ("trace.overhead_s", "s"),
)
CLI_QUANTITIES = (("s", "s"), ("startup_s", "s"), ("self_s", "s"),
                  ("rss_mib", "MiB"), ("out_mib", "MiB"))


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for stage in STAGES:
        for q, unit in CLI_QUANTITIES:
            units["cli.%s.%s" % (stage, q)] = unit
    for name, quantities in LAYER_SPANS:
        for q in quantities:
            units["%s.%s" % (name, q)] = "count" if q == "calls" else "s"
    for name, unit in LAYER_COUNTS:
        units[name] = unit
    return units


# Which traced functions each workload must call, and which it must not:
# the tracing self-check. Every function in LAYER_SPANS is called on at
# least one workload (checked in main).
_EVERY_CHAIN = {
    "data.read_features", "data.write_features", "preprocess.fit_whitening",
    "preprocess.fit_quantizer", "preprocess.apply_whitening",
    "preprocess.quantize", "preprocess.dequantize", "models.predict",
    "models.serialize_model", "models.deserialize_model",
    "trainer.train_all", "trainer.train_label", "trainer.build_sampling_plan",
    "metrics.evaluate", "metrics.mean_average_precision", "metrics.hit_at_k",
    "metrics.perr", "metrics.read_predictions", "metrics.write_predictions"}
CALLED = {
    "frame": _EVERY_CHAIN | {
        "models.logistic_predict", "trainer.expand_frame_examples",
        "trainer.predict_video_frame_level"},
    "fisher-moe": _EVERY_CHAIN | {
        "encoders.fit_kmeans", "encoders.fit_gmm", "encoders.encode_fisher",
        "encoders.gmm_posteriors", "aggregate.read_descriptors",
        "aggregate.write_descriptors", "models.moe_gating",
        "models.moe_predict", "models.moe_gradients_batch",
        "trainer.predict_video_level"},
    "wide": _EVERY_CHAIN | {
        "aggregate.build_descriptor", "aggregate.fit_global_normalizer",
        "aggregate.read_descriptors", "aggregate.write_descriptors",
        "preprocess.invert_whitening", "models.logistic_predict",
        "trainer.predict_video_level"},
}
# name prefixes that must have no calls
NOT_CALLED = {
    "frame": ("encoders.", "aggregate.build_descriptor", "models.moe_"),
    "fisher-moe": ("aggregate.build_descriptor", "preprocess.invert_whitening",
                   "trainer.expand_frame_examples"),
    "wide": ("encoders.", "models.moe_", "trainer.expand_frame_examples"),
}


class StageFailed(Exception):
    pass


class Paths:
    """Where one run keeps its stage logs, spans and result."""

    def __init__(self, workload, seed, trace):
        self.base = os.path.join(WORK, workload)
        self.logs = os.path.join(self.base, "logs")
        self.trace = os.path.join(self.base, "trace")
        self.result = os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                                   % (workload, seed, trace))


class Corpus:
    """One generated corpus and the files its stage chain writes."""

    def __init__(self, base, seed):
        self.seed = seed
        self.base = os.path.join(base, "seed%d" % seed)
        self.corpus = os.path.join(self.base, "corpus")
        self.prep = os.path.join(self.base, "prep")
        self.desc = os.path.join(self.base, "desc")
        self.bank = os.path.join(self.base, "bank")
        self.preds = os.path.join(self.base, "preds.txt")
        self.report = os.path.join(self.base, "report.txt")
        self.outputs = (self.prep, self.desc, self.bank, self.preds,
                        self.report)

    def generate(self, spec):
        return ["gen-synthetic", "--out", self.corpus, "--seed",
                str(self.seed), "--labels", str(spec["labels"]),
                "--videos", str(spec["videos"]), "--dim", "32"]


def chain(spec, p):
    """The stage chain of corpus p as (stage, vidbase arguments, output
    path) triples, and the arguments that point predict, evaluate and
    oracle at the partition's inputs."""
    steps = [("preprocess", ["preprocess", "--data", p.corpus,
                             "--out", p.prep], p.prep)]
    if spec["encode"] is None:
        source = ["--data", p.prep]
    else:
        steps.append(("encode", ["encode", "--data", p.prep, "--out", p.desc]
                      + spec["encode"], p.desc))
        source = ["--descriptors", p.desc]
    steps += [
        ("train", ["train"] + source + ["--vocab-dir", p.corpus,
                                        "--out", p.bank] + spec["train"]
         + ["--workers", str(spec["workers"])], p.bank),
        ("predict", ["predict", "--bank", p.bank] + source
         + ["--partition", "test", "--out", p.preds], p.preds),
        ("evaluate", ["evaluate", "--predictions", p.preds] + source
         + ["--partition", "test", "--out", p.report], p.report),
    ]
    return steps, source


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    """Runs vidbase stages as child processes and keeps their records."""

    def __init__(self, paths):
        self.paths = paths
        self.env = child_env()
        self.attempted = 0
        self.failures = []
        self.count = 0

    def run(self, stage, argv, trace=False):
        """Run one stage. Returns its record: wall_s (spawn to exit, less
        the reference job), startup_s (spawn to cli.main), main_s, ref_s
        (reference job before and after cli.main), rss_mib, and the trace
        summary when traced. A stage that exits non-zero is recorded as a
        failure and raises StageFailed."""
        self.count += 1
        self.attempted += 1
        tag = "%03d-%s" % (self.count, stage)
        record_path = os.path.join(self.paths.logs, tag + ".json")
        log_path = os.path.join(self.paths.logs, tag + ".log")
        trace_dir = self.paths.trace if trace else "-"
        cmd = [sys.executable, STAGE, record_path, trace_dir, "--"] + argv
        with open(log_path, "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_exit = time.monotonic()
        # reaped by wait4 for this child's own rusage; tell Popen
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            self.failures.append("%s exited %s: %s"
                                 % (stage, proc.returncode, tail))
            raise StageFailed(stage)
        with open(record_path, encoding="utf-8") as fh:
            rec = json.load(fh)
        rec.update(stage=stage, rss_mib=usage.ru_maxrss / 1024.0,
                   startup_s=rec.pop("t_enter") - t_spawn,
                   wall_s=t_exit - t_spawn - sum(rec["ref_s"])
                   - sum(rec["vref_s"]))
        return rec

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _remove(path):
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _size_mib(path):
    if os.path.isfile(path):
        return os.path.getsize(path) / MIB
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total / MIB


def digests(corpus):
    """sha256 of every file the chain wrote, keyed by path under the
    corpus directory."""
    out = {}
    for top in corpus.outputs:
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in files:
            with open(path, "rb") as fh:
                out[os.path.relpath(path, corpus.base)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return out


def run_chain(runner, corpus, steps, trace=False):
    for path in corpus.outputs:
        _remove(path)
    t0 = time.monotonic()
    recs = []
    for stage, argv, out in steps:
        recs.append(runner.run(stage, argv, trace=trace))
        recs[-1]["out_mib"] = _size_mib(out)
    return {"elapsed_s": time.monotonic() - t0, "stages": recs,
            "pipeline_s": sum(r["wall_s"] for r in recs),
            "corpus": corpus, "digests": digests(corpus)}


def read_report(path):
    pairs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            pairs[key] = value
    return pairs


def check_predictions(runner, corpus, spec):
    """Every test video gets exactly one finite score per label."""
    n_videos = spec["videos"] - int(round(spec["videos"] * 0.7)) \
        - int(round(spec["videos"] * 0.2))
    seen = set()
    finite = True
    with open(corpus.preds, encoding="utf-8") as fh:
        for line in fh:
            vid, label, score = line.split()
            seen.add((vid, int(label)))
            finite = finite and math.isfinite(float(score))
    videos = {v for v, _ in seen}
    labels = {l for _, l in seen}
    runner.check(finite, "non-finite prediction score")
    runner.check(len(videos) == n_videos and labels == set(range(spec["labels"]))
                 and len(seen) == n_videos * spec["labels"],
                 "predictions cover %d videos x %d labels, expected %d x %d"
                 % (len(videos), len(labels), n_videos, spec["labels"]))


def _differing(a, b):
    names = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return "%d files, first %s" % (len(names), names[:5])


def check_determinism(runner, chains, key):
    """All chains of this run on one corpus wrote identical files, and so
    did every earlier run on that corpus with the same program source and
    stage commands, traced or not (digests are kept in the work
    directory)."""
    first = {}
    for c in chains:
        seed = c["corpus"].seed
        if seed in first:
            runner.check(c["digests"] == first[seed], "chain outputs differ "
                         "within the run: %s"
                         % _differing(first[seed], c["digests"]))
            continue
        first[seed] = c["digests"]
        store = os.path.join(WORK, "digests", "seed%d-%s.json" % (seed, key))
        if os.path.exists(store):
            with open(store, encoding="utf-8") as fh:
                earlier = json.load(fh)
            runner.check(earlier == c["digests"], "outputs differ from an "
                         "earlier run on the same corpus: %s"
                         % _differing(earlier, c["digests"]))
        else:
            os.makedirs(os.path.dirname(store), exist_ok=True)
            with open(store, "w", encoding="utf-8") as fh:
                json.dump(c["digests"], fh, indent=1, sort_keys=True)


def source_digest():
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(spec, seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {v: BLAS_THREADS for v in THREAD_VARS},
        "git_commit": commit, "source_sha256": source_digest(),
        "workload_seed": seed, "workers": spec["workers"],
        "program_threads": spec["workers"] * BLAS_THREADS,
        "machine": platform.machine(),
    }


def stage_values(chains, stage, key):
    return [r[key] for c in chains for r in c["stages"] if r["stage"] == stage]


def _ref_scale(recs, part="ref_s", nominal=REF_NOMINAL_S):
    """Converts times measured during recs to the reference speed: the
    nominal time of a reference part over the mean measured around them."""
    return nominal / statistics.fmean(t for r in recs for t in r[part])


def samples_of(chains, pairs, setups, workers, scaled=True):
    """Every sample of the timed metrics taken in this run, at the
    reference speed (scaled) or as measured."""
    def scale(recs, *part):
        return _ref_scale(recs, *part) if scaled else 1.0

    out = {"pipeline_s": [], "featurize_s": [], "train_s": []}
    for c in chains:
        k = scale(c["stages"])
        # the reference job runs on one thread: a train stage with label
        # workers on both processors is reported as measured
        k_train = k if workers == 1 else 1.0
        out["pipeline_s"].append(sum(
            (k_train if r["stage"] == "train" else k) * r["wall_s"]
            for r in c["stages"]))
        out["train_s"].append(k_train * sum(r["main_s"] for r in c["stages"]
                                            if r["stage"] == "train"))
        # preprocess and encode run vectorized numpy kernels, which the
        # spells slow less than interpreter-bound code: each stage is
        # scaled by the vectorized part of its own reference job
        out["featurize_s"].append(sum(
            scale([r], "vref_s", VREF_NOMINAL_S) * r["main_s"]
            for r in c["stages"] if r["stage"] in FEATURIZE))
    out["score_s"] = [scale(p) * sum(r["main_s"] for r in p)
                      for p in [c["stages"][-2:] for c in chains] + pairs]
    out["setup_s"] = [scale([r]) * r["wall_s"] for r in setups]
    out["peak_rss_mib"] = [max(r["rss_mib"] for r in c["stages"])
                           for c in chains]
    return out


def end_to_end(samples, report):
    m = {name: statistics.median(v) for name, v in samples.items()}
    m["mAP"] = float(report["mAP"])
    m["hit_at_1"] = float(report["Hit@1"])
    m["perr"] = float(report["PERR"])
    return m


def per_layer(traced, untraced, oracle_rec, workload, runner):
    """Per-layer metrics from the traced chain, with the tracing
    self-check applied."""
    units = per_layer_units()
    m = dict.fromkeys(units, 0.0)
    layers = {}
    counters = {}
    for rec in traced["stages"]:
        stage = rec["stage"]
        tr = rec["trace"]
        runner.check(tr["nested"], "%s: child span outside its parent" % stage)
        runner.check(abs(tr["self_sum_s"] - tr["span_sum_s"]) <= 1e-6,
                     "%s: self times add to %.9f s, spans to %.9f s"
                     % (stage, tr["self_sum_s"], tr["span_sum_s"]))
        root = tr["layers"]["cli.main"]
        m["cli.%s.s" % stage] = root["total_s"]
        m["cli.%s.self_s" % stage] = root["self_s"]
        m["cli.%s.startup_s" % stage] = rec["startup_s"]
        m["cli.%s.out_mib" % stage] = rec["out_mib"]
        for name, v in tr["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0})
            for q in acc:
                acc[q] += v[q]
        for name, v in rec["counters"].items():
            counters[name] = counters.get(name, 0) + v
        if stage == "encode":
            runner.check(tr["layers"]["preprocess.fit_whitening"]["calls"]
                         >= tr["layers"]["aggregate.fit_global_normalizer"]["calls"],
                         "encode: fit_global_normalizer ran fit_whitening untraced")
    # the tracer's span buffers would inflate a traced child's RSS
    for stage in STAGES:
        rss = stage_values(untraced, stage, "rss_mib")
        if rss:
            m["cli.%s.rss_mib" % stage] = statistics.median(rss)
    for name, quantities in LAYER_SPANS:
        for q in quantities:
            m["%s.%s" % (name, q)] = layers[name][q]
    for name in CALLED[workload]:
        runner.check(layers[name]["calls"] > 0,
                     "tracing self-check: %s was not called on %s"
                     % (name, workload))
    for prefix in NOT_CALLED[workload]:
        for name, v in layers.items():
            if name.startswith(prefix):
                runner.check(v["calls"] == 0,
                             "tracing self-check: %s was called on %s"
                             % (name, workload))
    for name, _ in LAYER_COUNTS:
        if name in counters:
            m[name] = counters[name]
    inv = layers["preprocess.invert_whitening"]["calls"]
    if inv:
        m["preprocess.invert_whitening.pinv_per_transform"] = \
            inv / counters["preprocess.invert_whitening.transforms"]
    if counters["trainer.updates"]:
        m["trainer.update_us"] = (layers["trainer.train_label"]["total_s"]
                                  / counters["trainer.updates"] * 1e6)
    m["reference.oracle_s"] = oracle_rec["main_s"]
    m["trace.pipeline_s"] = traced["pipeline_s"]
    m["trace.overhead_s"] = traced["pipeline_s"] - statistics.median(
        c["pipeline_s"] for c in untraced
        if c["corpus"] is traced["corpus"])
    return {name: {"value": float(m[name]), "unit": units[name]}
            for name in units}


def benchmark(runner, workload, seed, seconds, trace):
    """One benchmark run. Returns (metrics, full result); a failing stage
    raises StageFailed."""
    spec = WORKLOADS[workload]
    paths = runner.paths
    _remove(paths.base)
    for d in (paths.logs, paths.trace, os.path.dirname(paths.result)):
        os.makedirs(d, exist_ok=True)

    corpora = [Corpus(paths.base, seed + k * CORPUS_SEED_STEP)
               for k in range(SETUPS)]
    setups = [runner.run("gen-synthetic", c.generate(spec)) for c in corpora]
    steps = {c.seed: chain(spec, c) for c in corpora}

    # the measured window: whole chains, taking the corpora in turn, while
    # one more fits; then predict + evaluate pairs while one more fits
    deadline = time.monotonic() + seconds
    chains, pairs = [], []
    while not chains or time.monotonic() + statistics.fmean(
            c["elapsed_s"] for c in chains) <= deadline:
        corpus = corpora[len(chains) % len(corpora)]
        chains.append(run_chain(runner, corpus, steps[corpus.seed][0]))
    last = chains[-1]
    score = steps[last["corpus"].seed][0][-2:]
    pair_s = sum(r["wall_s"] + sum(r["ref_s"]) + sum(r["vref_s"])
                 for r in last["stages"][-2:])
    while time.monotonic() + pair_s <= deadline:
        pairs.append([runner.run(stage, argv) for stage, argv, _ in score])
    runner.check(digests(last["corpus"]) == last["digests"],
                 "repeated predict + evaluate changed the outputs")

    # correctness gate, outside the window, on every corpus a chain used
    oracles = []
    for corpus in corpora[:len(chains)]:
        oracles.append(runner.run(
            "oracle", ["oracle", "--predictions", corpus.preds]
            + steps[corpus.seed][1] + ["--partition", "test"]))
        hit1 = read_report(corpus.report)["Hit@1"]
        runner.check(float(hit1) >= spec["hit1_floor"],
                     "corpus seed %d: Hit@1 %s below the floor %.4f"
                     % (corpus.seed, hit1, spec["hit1_floor"]))
        check_predictions(runner, corpus, spec)
    env = environment(spec, seed)
    runner.check(env["program_threads"] <= env["nproc"],
                 "%d program threads on %d processors"
                 % (env["program_threads"], env["nproc"]))

    traced = None
    if trace:
        traced = run_chain(runner, corpora[0], steps[corpora[0].seed][0],
                           trace=True)
    # same program source and same stage commands: same files expected
    key = hashlib.sha256(json.dumps(
        [env["source_sha256"], spec]).encode()).hexdigest()[:16]
    check_determinism(runner, chains + [traced] if trace else chains,
                      "%s-%s" % (workload, key))

    timed = samples_of(chains, pairs, setups, spec["workers"])
    # quality is read on the corpus of --seed itself
    e2e = end_to_end(timed, read_report(corpora[0].report))
    if trace:
        metrics = per_layer(traced, chains, oracles[0], workload, runner)
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": env,
              "corpus_seeds": [c["corpus"].seed for c in chains],
              "samples": timed,
              "measured": samples_of(chains, pairs, setups, spec["workers"],
                                     scaled=False),
              "stages": [[r["stage"], r["main_s"], r["wall_s"], r["ref_s"],
                          r["vref_s"]] for r in setups
                         + [r for c in chains for r in c["stages"]]
                         + [r for p in pairs for r in p]],
              "end_to_end": e2e, "failures": runner.failures,
              "metrics": metrics}
    with open(paths.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return metrics, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print("perfbench: no vidbase source at %s" % PACKAGE, file=sys.stderr)
        return 2

    uncovered = {n for n, _ in LAYER_SPANS} - set().union(*CALLED.values())
    if uncovered:
        print("perfbench: no workload calls %s" % sorted(uncovered),
              file=sys.stderr)
        return 2

    runner = Runner(Paths(args.workload, args.seed, args.trace))
    try:
        metrics, result = benchmark(runner, args.workload, args.seed,
                                    args.seconds, bool(args.trace))
    except StageFailed:
        metrics = result = None
    if result is not None:
        print("environment: %s" % json.dumps(result["environment"],
                                             sort_keys=True))
        for name, values in result["samples"].items():
            print("samples %s: %s (as measured: %s)" % (
                name, " ".join("%.4f" % v for v in values),
                " ".join("%.4f" % v for v in result["measured"][name])))
        for name, v in metrics.items():
            print("%-52s %14.6f %s" % (name, v["value"], v["unit"]))
    for failure in runner.failures:
        print("FAILED: %s" % failure)
    print(json.dumps({"correct": not runner.failures,
                      "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": metrics or {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
