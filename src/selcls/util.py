"""Seed derivation, canonical hashing, atomic writes, and small formatting
helpers."""

import csv
import hashlib
import json
import os
from contextlib import contextmanager

import numpy as np


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a labeled 63-bit sub-seed from a root seed.

    Every consumer of randomness (dataset sampling, weight init, per-epoch
    shuffles) draws its own stream from the one root seed, so two runs with
    the same root seed replay bit-identically while distinct labels stay
    statistically independent.
    """
    digest = hashlib.sha256(f"{root_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(root_seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed(root_seed, label)))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_hash(obj) -> str:
    """Stable hash of a JSON-serializable config document, over its JSON
    with sorted keys and compact separators."""
    return sha256_hex(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise.

    Used for every CSV cell so that reruns of a deterministic pipeline
    produce byte-identical files.
    """
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


@contextmanager
def atomic_write(path):
    """Open a text file that replaces ``path`` once the block completes.

    The block writes to a sibling ``.tmp`` file, which is renamed over
    ``path`` at the end. If anything fails on the way, the temp file is
    removed and any previous file at ``path`` stays intact. Lines are
    written untranslated, as with ``newline=""``. An OSError that names no
    file gets ``path`` as its filename, so callers can report it.
    """
    tmp = f"{os.fspath(path)}.tmp"
    f = open(tmp, "w", newline="")
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is None:
            exc.strerror = exc.strerror or str(exc)
            exc.filename = os.fspath(path)
        raise


def write_csv(path, header, rows, comment: str = "") -> None:
    """Atomically write ``path``: a ``# comment`` line when ``comment`` is
    given, then ``header`` and ``rows`` through ``csv.writer``, whose rows
    end in CRLF."""
    with atomic_write(path) as f:
        if comment:
            f.write(f"# {comment}\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
