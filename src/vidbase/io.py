"""The one container every binary artifact is written and read through:
the magic, the format version (u4) and the header's length (u8), all
little-endian; the header, JSON with sorted keys and no spaces, holding the
artifact's kind, each array's name, dtype and shape, a `meta` dict and the
sha256; then each array's bytes in header order. The header and each array
are padded with zeros to a multiple of 8 bytes.

The sha256 covers the header without its own entry and every byte after
the header, so a changed byte anywhere is caught (the magic and the
version by their own checks). The header holds no path, time or host, so
the same arrays and meta give the same bytes in any directory.
"""

import hashlib
import json
import math
import os
import struct
from collections import namedtuple

import numpy as np

MAGIC = b"VIDBASE\0"
VERSION = 1
_PREFIX = struct.Struct("<8sIQ")

Container = namedtuple("Container", "arrays meta sha256")


class DataFormatError(ValueError):
    """A file that is malformed, damaged or of another kind; the message
    names the file and the failed check."""


def _header_bytes(header):
    return json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def _pad(nbytes):
    """The zeros that take `nbytes` bytes to a multiple of 8."""
    return bytes(-nbytes % 8)


def save(path, kind, arrays, meta=None):
    """Write `arrays` (name -> array, each in its own dtype, written from
    its own buffer) and the JSON-able `meta` as a container of `kind`;
    returns its sha256."""
    arrays = {name: np.ascontiguousarray(a) for name, a in arrays.items()}
    header = {"kind": kind, "meta": meta or {},
              "arrays": [[name, a.dtype.str, list(a.shape)]
                         for name, a in arrays.items()]}
    head_len = len(_header_bytes(dict(header, sha256="0" * 64)))
    chunks = [_pad(_PREFIX.size + head_len)]
    for a in arrays.values():
        chunks += [a.data, _pad(a.nbytes)]
    digest = hashlib.sha256(_header_bytes(header))
    for chunk in chunks:
        digest.update(chunk)
    header["sha256"] = digest.hexdigest()
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, head_len))
        fh.write(_header_bytes(header))
        for chunk in chunks:
            fh.write(chunk)
    return header["sha256"]


def load(path, kind):
    """The arrays (views of one writable buffer the file is read into),
    meta and sha256 of the container of `kind` at `path`, after checking
    the magic, version, header, array lengths, trailing bytes, sha256 and
    kind; a failure is a DataFormatError naming the file and the check."""
    def fail(what):
        raise DataFormatError("%s: %s" % (path, what))

    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        fh.readinto(buf)  # a file cut meanwhile fails the sha256
    if buf[:len(MAGIC)] != MAGIC:
        fail("truncated magic" if MAGIC.startswith(buf) else
             "bad magic: not a vidbase container")
    if len(buf) < _PREFIX.size:
        fail("truncated before the header")
    _, version, head_len = _PREFIX.unpack_from(buf)
    if version != VERSION:
        fail("unsupported format version %d (this reader takes %d)"
             % (version, VERSION))
    start = _PREFIX.size + head_len
    if start > len(buf):
        fail("truncated header")
    head = bytes(buf[_PREFIX.size:start])
    try:
        header = json.loads(head)
        digest = header.pop("sha256")
        found, meta = header["kind"], dict(header["meta"])
        specs = [(name, np.dtype(dtype), tuple(shape))
                 for name, dtype, shape in header["arrays"]]
        canonical = _header_bytes(dict(header, sha256=digest)) == head
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        fail("malformed header (%s)" % exc)
    if not canonical:
        fail("malformed header (not in canonical form)")

    arrays, offset = {}, start + len(_pad(start))
    for name, dtype, shape in specs:
        if (dtype.hasobject or dtype.itemsize == 0
                or not all(type(n) is int and n >= 0 for n in shape)):
            fail("malformed entry for array %r" % name)
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > len(buf):
            fail("truncated in array %r" % name)
        arrays[name] = np.frombuffer(buf, dtype, nbytes // dtype.itemsize,
                                     offset).reshape(shape)
        offset += nbytes + len(_pad(nbytes))
    if offset > len(buf):
        fail("truncated after the last array")
    if offset < len(buf):
        fail("%d trailing bytes" % (len(buf) - offset))
    check = hashlib.sha256(_header_bytes(header))
    check.update(memoryview(buf)[start:])
    if check.hexdigest() != digest:
        fail("sha256 mismatch: the file is damaged")
    if found != kind:
        fail("holds %s, not %s" % (found, kind))
    return Container(arrays, meta, digest)
