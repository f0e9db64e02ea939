"""Helpers the tests share: a partition's videos and label lists one by
one, and label arrays, partitions and truth matrices built from per-video
label sets."""

import numpy as np

from vidbase import data


def video_frames(partition):
    """Each video's frames, in order, as views of `frames`."""
    bounds = partition.offsets.tolist()
    return (partition.frames[a:b] for a, b in zip(bounds[:-1], bounds[1:]))


def label_lists(partition):
    """Each video's label ids, in order, as a list."""
    bounds, labels = partition.label_offsets.tolist(), partition.labels.tolist()
    return [labels[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def label_arrays(label_sets):
    """The sorted label ids of each video's label set in turn, and their
    (V + 1,) offsets: a Partition's labels and label_offsets."""
    lists = [sorted(int(l) for l in labs) for labs in label_sets]
    return (np.array([l for labs in lists for l in labs], dtype=np.int64),
            np.cumsum([0] + [len(labs) for labs in lists], dtype=np.int64))


def labelled(video_ids, label_sets):
    """A partition of one-row videos with these ids and label sets."""
    return data.Partition(video_ids, np.zeros((len(video_ids), 1)),
                          np.arange(len(video_ids) + 1),
                          *label_arrays(label_sets))


def truth_matrix(label_sets, n_labels):
    """The (V, n_labels) bool truth matrix of per-video label sets."""
    return data.label_matrix(
        labelled(["v%d" % i for i in range(len(label_sets))], label_sets),
        n_labels)
