"""Run one vidbase CLI stage in this process, as the ``vidbase`` command
would, and record the in-process time of ``cli.main``.

usage: python3 stage.py RECORD TRACE_DIR -- <vidbase arguments>

RECORD is the JSON file written on exit. TRACE_DIR is ``-`` for an
untraced run; otherwise the public functions of the package are wrapped
by the span tracer before ``cli.main`` runs, and the spans are written to
TRACE_DIR when it returns.

A fixed reference job is timed right before and right after ``cli.main``;
the benchmark uses it to correct its times for the machine's speed at
that moment (see README.md).
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from vidbase import cli  # noqa: E402


def reference_work():
    """Time two fixed jobs: one bound by the interpreter (a dict loop and
    many tiny numpy calls, like the per-example trainer), one by
    vectorized numpy kernels (broadcast distance tensors, einsum and
    quantiles, like the encoders and the quantizer fit)."""
    import numpy as np
    t0 = time.perf_counter()
    counts = {}
    for i in range(80000):
        key = "k%d" % (i % 977)
        counts[key] = counts.get(key, 0) + i
    x = np.linspace(-1.0, 1.0, 33)
    w = np.zeros(33)
    g = np.zeros(33)
    for _ in range(4000):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        grad = x * (p - 0.5)
        g += grad * grad
        w -= grad / np.sqrt(g + 1e-6)
    t1 = time.perf_counter()
    frames = np.sin(np.arange(4000 * 32, dtype=np.float64)).reshape(4000, 32)
    centers = frames[::1000].copy()
    for _ in range(12):
        diff = frames[:, None, :] - centers[None]
        d2 = np.einsum("tnd,tnd->tn", diff, diff)
        post = np.exp(-0.5 * (d2 - d2.min(axis=1, keepdims=True)))
        centers = (post.T @ frames) / post.sum(axis=0)[:, None]
    np.quantile(frames, np.arange(1, 256) / 256, axis=0)
    return t1 - t0, time.perf_counter() - t1


def main():
    record_path, trace_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: stage.py RECORD TRACE_DIR -- ARGS...")
    tracer = None
    record = {}
    if trace_dir != "-":
        import tracer as tracing
        tracer = tracing.Tracer(run_id=os.path.basename(record_path))
        tracer.install("vidbase")
    record["t_enter"] = time.monotonic()
    before = reference_work()
    t0 = time.perf_counter()
    if tracer is None:
        rc = cli.main(argv)
    else:
        rc = tracer.root(cli.main, argv)
    record["main_s"] = time.perf_counter() - t0
    after = reference_work()
    record["ref_s"] = [before[0], after[0]]
    record["vref_s"] = [before[1], after[1]]
    if tracer is not None:
        import numpy as np
        spans = tracer.spans()
        name = os.path.splitext(os.path.basename(record_path))[0]
        np.savez(os.path.join(trace_dir, name + ".npz"), spans=spans,
                 names=np.array(tracer.names), run_id=np.array(tracer.run_id))
        record["trace"] = tracing.summarize(spans, tracer.names)
        record["counters"] = tracer.counters()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
