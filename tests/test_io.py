"""The container every binary artifact goes through: each kind's reader
rejects damaged, foreign and other-kind files, naming the file, and no
module but io.py decides a binary format."""

import ast
import re
import os

import numpy as np
import pytest

from vidbase import aggregate, cli, data, encoders, io, preprocess

from helpers import label_arrays

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "vidbase")


def _partition():
    return data.Partition(["a", "b"], np.arange(10, dtype=np.float32)
                          .reshape(5, 2), [0, 2, 5],
                          *label_arrays([{0}, {1, 2}]))


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """kind -> (path of a file written by that kind's writer, its reader)."""
    out = tmp_path_factory.mktemp("artifacts")
    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 3))
    part = _partition()
    data.write_features(part, out / "f.features", {"seed": 1})
    aggregate.write_descriptors(out / "d.desc", part,
                                rng.standard_normal((2, 4)))
    preprocess.save_transform(preprocess.fit_whitening(x, 3), out / "t.pca")
    preprocess.save_quantizer(preprocess.fit_quantizer(x), out / "q.qnt")
    encoders.save_gmm(encoders.fit_gmm(x, 2, seed=1), out / "c.gmm")
    encoders.save_kmeans(encoders.fit_kmeans(x, 2, seed=1), out / "c.kms")
    corpus = out / "corpus"
    assert cli.main(["gen-synthetic", "--out", str(corpus), "--labels", "2",
                     "--videos", "20", "--dim", "3"]) == cli.EXIT_OK
    assert cli.main(["train", "--data", str(corpus), "--out", str(out / "b"),
                     "--level", "frame", "--model", "logistic",
                     "--iterations", "1"]) == cli.EXIT_OK
    return {
        "features": (out / "f.features", data.read_features),
        "descriptors": (out / "d.desc", aggregate.read_descriptors),
        "transform": (out / "t.pca", preprocess.load_transform),
        "quantizer": (out / "q.qnt", lambda p: io.load(p, "quantizer")),
        "gmm": (out / "c.gmm", lambda p: io.load(p, "gmm")),
        "kmeans": (out / "c.kms", lambda p: io.load(p, "kmeans")),
        "bank": (out / "b" / cli.BANK_FILE, cli._load_bank),
    }


KINDS = ("features", "descriptors", "transform", "quantizer", "gmm",
         "kmeans", "bank")


def _head_end(blob):
    return 20 + int.from_bytes(blob[12:20], "little")


def _truncated(blob):
    return [blob[:n] for n in (0, 5, 15, _head_end(blob) - 1,
                               (_head_end(blob) + len(blob)) // 2,
                               len(blob) - 1)]


def _wrong_digest(blob):
    at = blob.index(b'"sha256":"') + 10
    swapped = b"0" if blob[at:at + 1] != b"0" else b"1"
    return [blob[:at] + swapped + blob[at + 1:]]


FAULTS = {
    "truncation": (_truncated, "truncated"),
    "flipped-magic": (lambda b: [bytes([b[0] ^ 0x20]) + b[1:]], "bad magic"),
    "wrong-version": (lambda b: [b[:8] + (2).to_bytes(4, "little") + b[12:]],
                      "version 2"),
    "wrong-digest": (_wrong_digest, "sha256 mismatch"),
    "trailing-bytes": (lambda b: [b + b"\0" * 8], "8 trailing bytes"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", KINDS)
def test_reader_rejects_damage_naming_the_file(artifacts, tmp_path, kind,
                                               fault):
    path, read = artifacts[kind]
    read(path)  # the undamaged file reads
    damage, match = FAULTS[fault]
    victim = tmp_path / path.name
    for blob in damage(path.read_bytes()):
        victim.write_bytes(blob)
        with pytest.raises(data.DataFormatError, match=match) as err:
            read(victim)
        assert str(victim) in str(err.value)


@pytest.mark.parametrize("kind", KINDS)
def test_reader_rejects_another_kind(artifacts, kind):
    _, read = artifacts[kind]
    other = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
    path = artifacts[other][0]
    with pytest.raises(data.DataFormatError,
                       match="holds %s, not %s" % (other, kind)) as err:
        read(path)
    assert str(path) in str(err.value)


def test_every_single_byte_flip_is_rejected(tmp_path):
    path = tmp_path / "small.features"
    data.write_features(_partition(), path, {"seed": 3, "l2": 1e-06})
    blob = path.read_bytes()
    data.read_features(path)
    for at in range(len(blob)):
        for bit in (0x01, 0x20, 0x80):
            path.write_bytes(blob[:at] + bytes([blob[at] ^ bit])
                             + blob[at + 1:])
            with pytest.raises(data.DataFormatError) as err:
                data.read_features(path)
            assert str(path) in str(err.value), (at, bit)


def test_arrays_are_views_of_one_writable_buffer(tmp_path):
    path = tmp_path / "v.bin"
    arrays = {"a": np.arange(3, dtype="<f4"), "b": np.arange(6.0).reshape(2, 3),
              "c": np.zeros((0, 4), dtype="<i8"), "d": np.array([7], "u1")}
    digest = io.save(path, "test", arrays, {"k": [1, "x"]})
    back = io.load(path, "test")
    assert back.sha256 == digest and back.meta == {"k": [1, "x"]}
    bases = set()
    for name, want in arrays.items():
        got = back.arrays[name]
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.flags.writeable and not got.flags.owndata
        while isinstance(got, np.ndarray):
            got = got.base
        bases.add(id(got.obj))
    assert len(bases) == 1
    # every array starts at a multiple of 8 bytes
    assert all(a.ctypes.data % 8 == 0 for a in back.arrays.values() if a.size)


def test_same_content_same_bytes(tmp_path):
    arrays = {"x": np.arange(5.0)}
    io.save(tmp_path / "a.bin", "test", arrays, {"b": 1, "a": 2})
    io.save(tmp_path / "b.bin", "test", arrays, {"a": 2, "b": 1})
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert b"tmp" not in (tmp_path / "a.bin").read_bytes()


@pytest.mark.parametrize("entry,meta", [
    (["x", "|O", [1]], {}), (["x", "<f8", [-1]], {}),
    (["x", "<f8", [1.5]], {}), (["x", "V0", [1]], {}),
    (["x", "nonsense", [1]], {}), (["x", "<f8", 1], {}),
    (["x", "<f8"], {}), (["x", "<f8", [1]], [1, 2])],
    ids=["object", "negative", "float-shape", "empty-dtype", "bad-dtype",
         "int-shape", "short-entry", "list-meta"])
def test_malformed_array_entries_rejected(tmp_path, entry, meta):
    # a header that another writer got wrong, under a valid digest
    path = tmp_path / "m.bin"
    io.save(path, "test", {"x": np.zeros(1)})
    blob = path.read_bytes()
    head = io._header_bytes({"arrays": [entry], "kind": "test", "meta": meta})
    digest = io.hashlib.sha256(head + blob[_head_end(blob):]).hexdigest()
    head = io._header_bytes({"arrays": [entry], "kind": "test", "meta": meta,
                             "sha256": digest})
    path.write_bytes(blob[:12] + len(head).to_bytes(8, "little") + head
                     + blob[_head_end(blob):])
    with pytest.raises(data.DataFormatError, match="malformed") as err:
        io.load(path, "test")
    assert str(path) in str(err.value)


def _binary_io(tree):
    """(line, what) of each struct import and binary-mode open in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import struct") for a in node.names
                      if a.name == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            found.append((node.lineno, "from struct import"))
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords
                                      if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                        and "b" not in m.value) for m in modes):
                found.append((node.lineno, "binary or unknown open mode"))
    return found


def test_only_io_decides_a_binary_format():
    offenders = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "io.py":
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                found = _binary_io(ast.parse(fh.read()))
            if found:
                offenders[name] = found
    assert offenders == {}
    # the guard sees what it must catch
    with open(os.path.join(SRC, "io.py"), encoding="utf-8") as fh:
        kinds = {what for _, what in _binary_io(ast.parse(fh.read()))}
    assert kinds == {"import struct", "binary or unknown open mode"}
    assert _binary_io(ast.parse("from struct import pack\nopen(p, mode=m)"))


def _readme_artifact_cells(column):
    """kind -> the cell of `column` (2: arrays, 3: header meta) of its row
    in the README's Artifacts table."""
    readme = os.path.join(os.path.dirname(os.path.dirname(SRC)),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read().split("## Artifacts", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in text.splitlines()
            if line.startswith("| `")]
    return {cells[1].strip(): cells[column] for cells in rows}


@pytest.mark.parametrize("kind", KINDS)
def test_readme_names_every_array_written(artifacts, kind):
    # each array a kind's writer puts in its file is named in that kind's
    # row of the README's Artifacts table
    cell = _readme_artifact_cells(2)[kind]
    path, _ = artifacts[kind]
    for name in io.load(path, kind).arrays:
        assert re.search(r"\b%s\b" % name, cell), (kind, name, cell)


KIND_OF_SUFFIX = {".features": "features", ".desc": "descriptors",
                  ".pca": "transform", ".qnt": "quantizer", ".gmm": "gmm",
                  ".kms": "kmeans", ".bin": "bank"}


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """kind -> the containers of that kind that a stats, a Fisher and a
    VLAD chain write, from gen-synthetic to train."""
    root = tmp_path_factory.mktemp("chains")
    corpus, prep = root / "corpus", root / "prep"
    steps = [["gen-synthetic", "--out", corpus, "--labels", "3",
              "--videos", "60", "--dim", "4"],
             ["preprocess", "--data", corpus, "--out", prep]]
    for method in ("stats", "fisher", "vlad"):
        steps += [["encode", "--data", prep, "--out", root / method,
                   "--method", method, "--mixtures", "2", "--clusters", "2"],
                  ["train", "--descriptors", root / method, "--vocab-dir",
                   corpus, "--out", root / method / "bank",
                   "--iterations", "1"]]
    for argv in steps:
        assert cli.main([str(a) for a in argv]) == cli.EXIT_OK
    found = {}
    for path in sorted(root.rglob("*")):
        if path.suffix in KIND_OF_SUFFIX:
            found.setdefault(KIND_OF_SUFFIX[path.suffix], []).append(path)
    return found


@pytest.mark.parametrize("kind", KINDS)
def test_readme_names_every_header_key_written(chain_files, kind):
    # the header `meta` keys that the files of a kind hold, taken over
    # every file of that kind the chains write, are the keys spelled in
    # backticks in that kind's row of the README's Artifacts table
    cell = _readme_artifact_cells(3)[kind]
    written = set()
    for path in chain_files[kind]:
        written.update(io.load(path, kind).meta)
    assert written == set(re.findall(r"`(\w+)`", cell)), (kind, cell)
