"""Shallow video-classification baselines over frame-level features.

Subpackages: io (checked container of every binary file), data (feature
files, synthetic corpora), preprocess (PCA whitening, quantization),
aggregate (mean/std/Top-K), encoders (Fisher, VLAD), models (logistic,
hinge, MoE), trainer (per-label Adagrad), metrics (mAP, Hit@k, PERR),
reference (brute-force metric oracles), cli (pipeline).
"""

__version__ = "0.1.0"
