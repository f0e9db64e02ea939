"""Span tracer for one vidbase stage process.

The tracer replaces the public functions named in ``TRACED`` with wrappers
that record one span per call: span id, name, parent span, start and end
(``time.perf_counter``), kept in per-thread buffers in memory. Every other
reference to an original function inside the ``vidbase`` package (such as
``aggregate``'s by-name import of ``fit_whitening``) is rebound to the same
wrapper, so no call path escapes the trace. A few wrappers also record
counts derived from their arguments and results (hooks below).

Nothing in the program is changed on disk: the wrapping happens in the
stage process, before ``cli.main`` runs.
"""

import importlib
import itertools
import math
import os
import threading
import time
from array import array

import numpy as np

# module -> public functions wrapped, in report order
TRACED = {
    "data": ("read_features", "write_features"),
    "preprocess": ("fit_whitening", "fit_quantizer", "apply_whitening",
                   "quantize", "dequantize", "invert_whitening"),
    "aggregate": ("build_descriptor", "fit_global_normalizer",
                  "read_descriptors", "write_descriptors"),
    "encoders": ("fit_kmeans", "fit_gmm", "encode_fisher", "gmm_posteriors"),
    "models": ("logistic_predict", "moe_gating", "moe_predict",
               "moe_gradients_batch", "predict", "serialize_model",
               "deserialize_model"),
    "trainer": ("train_all", "train_label", "build_sampling_plan",
                "expand_frame_examples", "predict_video_level",
                "predict_video_frame_level"),
    "metrics": ("evaluate", "mean_average_precision", "hit_at_k", "perr",
                "read_predictions", "write_predictions"),
}

# every module of the package whose globals may hold a traced function
MODULES = tuple(TRACED) + ("reference", "cli")

ROOT_SPAN = "cli.main"
MIB = float(1 << 20)


def _file_mib(path):
    return os.path.getsize(path) / MIB


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Hooks run after a traced call returns and add to per-thread counters.
# Each takes (counters, thread state, args, kwargs, result).

def _read_mib(name):
    def hook(c, st, args, kwargs, result):
        c[name] += _file_mib(_arg(args, kwargs, 0, "path"))
    return hook


def _written_mib(name, index):
    def hook(c, st, args, kwargs, result):
        c[name] += _file_mib(_arg(args, kwargs, index, "path"))
    return hook


def _invert_whitening(c, st, args, kwargs, result):
    st.transforms.add(id(_arg(args, kwargs, 0, "transform")))


def _fit_kmeans(c, st, args, kwargs, result):
    c["encoders.fit_kmeans.iterations"] += len(result.sse_trace)


def _fit_gmm(c, st, args, kwargs, result):
    frames = np.asarray(_arg(args, kwargs, 0, "frames"))
    n_components = _arg(args, kwargs, 1, "n_components")
    c["encoders.fit_gmm.iterations"] += len(result.log_likelihoods)
    c["encoders.fit_gmm.tensor_mib"] += (frames.shape[0] * n_components
                                         * frames.shape[1] * 8 / MIB)


def _train_all(c, st, args, kwargs, result):
    c["trainer.labels_skipped"] += sum(1 for r in result.values() if r.skipped)


def _sampling_plan(c, st, args, kwargs, result):
    n = result.sampled_pos + result.sampled_neg
    c["trainer.sampled_examples"] += n
    c["trainer.updates"] += math.ceil(n / st.batch_size)


HOOKS = {
    "data.read_features": _read_mib("data.read_features.mib"),
    "data.write_features": _written_mib("data.write_features.mib", 1),
    "aggregate.write_descriptors": _written_mib("aggregate.write_descriptors.mib", 0),
    "metrics.write_predictions": _written_mib("metrics.write_predictions.mib", 1),
    "preprocess.invert_whitening": _invert_whitening,
    "encoders.fit_kmeans": _fit_kmeans,
    "encoders.fit_gmm": _fit_gmm,
    "trainer.train_all": _train_all,
    "trainer.build_sampling_plan": _sampling_plan,
}


def _train_label_pre(st, args, kwargs):
    # the sampling plans drawn inside this call are split into batches
    st.batch_size = _arg(args, kwargs, 3, "cfg").batch_size


# pre-hooks see the arguments before the call
PRE_HOOKS = {"trainer.train_label": _train_label_pre}

COUNTERS = ("data.read_features.mib", "data.write_features.mib",
            "aggregate.write_descriptors.mib", "metrics.write_predictions.mib",
            "encoders.fit_kmeans.iterations", "encoders.fit_gmm.iterations",
            "encoders.fit_gmm.tensor_mib", "trainer.labels_skipped",
            "trainer.sampled_examples", "trainer.updates")


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.stack = []
        self.buf = array("d")   # rows of (span id, name id, parent id, t0, t1)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.transforms = set()
        self.batch_size = 1


class Tracer:
    """Records spans for every wrapped function in one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = [ROOT_SPAN]
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._main = self._state()

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._threads))
                self._threads.append(st)
            self._local.state = st
        return st

    def _parent(self, st):
        if st.stack:
            return st.stack[-1]
        # a worker thread's first span hangs off what the main thread runs
        try:
            return self._main.stack[-1]
        except IndexError:
            return -1.0

    def span(self, name_id, fn, args, kwargs, pre=None, hook=None):
        st = self._state()
        sid = float(next(self._ids))
        parent = self._parent(st)
        if pre is not None:
            pre(st, args, kwargs)
        st.stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            st.stack.pop()
            st.buf.extend((sid, name_id, parent, t0, t1))
        if hook is not None:
            hook(st.counters, st, args, kwargs, result)
        return result

    def wrap(self, qualname, fn):
        name_id = float(len(self.names))
        self.names.append(qualname)
        pre, hook, span = PRE_HOOKS.get(qualname), HOOKS.get(qualname), self.span

        def traced(*args, **kwargs):
            return span(name_id, fn, args, kwargs, pre, hook)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, package):
        """Wrap every function in TRACED and rebind every reference to it
        across the package's modules, by-name imports included."""
        wrappers = {}
        for mod_name, fns in TRACED.items():
            mod = importlib.import_module("%s.%s" % (package, mod_name))
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                wrappers[id(orig)] = self.wrap("%s.%s" % (mod_name, fn_name),
                                               orig)
        for mod_name in MODULES:
            mod = importlib.import_module("%s.%s" % (package, mod_name))
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def root(self, fn, *args):
        """Run fn as the root span (name ``cli.main``)."""
        return self.span(0.0, fn, args, {})

    def spans(self):
        """All spans as an (N, 6) array: id, name, parent, thread, t0, t1."""
        parts = []
        for st in self._threads:
            rows = np.frombuffer(st.buf, dtype=np.float64).reshape(-1, 5)
            th = np.full((len(rows), 1), float(st.index))
            parts.append(np.hstack([rows[:, :3], th, rows[:, 3:]]))
        out = np.vstack(parts) if parts else np.empty((0, 6))
        return out[np.argsort(out[:, 0], kind="stable")]

    def counters(self):
        total = dict.fromkeys(COUNTERS, 0)
        transforms = set()
        for st in self._threads:
            for key, value in st.counters.items():
                total[key] += value
            transforms |= st.transforms
        total["preprocess.invert_whitening.transforms"] = len(transforms)
        return total


def summarize(spans, names):
    """Per-name calls, self time and total time from an (N, 6) span array,
    plus the accounting check: the self times of all spans add up to the
    root span plus every span that starts a worker thread's tree."""
    sid, nid, parent, thread, t0, t1 = spans.T
    n = len(spans)
    if not np.array_equal(sid, np.arange(n)) or n == 0 or nid[0] != 0:
        raise ValueError("span ids are not contiguous from the root span")
    dur = t1 - t0
    self_s = dur.copy()
    pi = parent.astype(np.int64)
    child = pi >= 0
    same = np.zeros(n, dtype=bool)
    same[child] = thread[child] == thread[pi[child]]
    np.subtract.at(self_s, pi[same], dur[same])
    nested = bool(np.all(t0[same] >= t0[pi[same]])
                  and np.all(t1[same] <= t1[pi[same]]))
    tree_roots = ~same & (np.arange(n) > 0)
    expected = dur[0] + float(dur[tree_roots].sum())
    calls = np.bincount(nid.astype(np.int64), minlength=len(names))
    self_by = np.bincount(nid.astype(np.int64), weights=self_s,
                          minlength=len(names))
    total_by = np.bincount(nid.astype(np.int64), weights=dur,
                           minlength=len(names))
    layers = {name: {"calls": int(calls[i]), "self_s": float(self_by[i]),
                     "total_s": float(total_by[i])}
              for i, name in enumerate(names)}
    return {"layers": layers, "nested": nested,
            "self_sum_s": float(self_s.sum()), "span_sum_s": expected}
