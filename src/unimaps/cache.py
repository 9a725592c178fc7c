"""Persistent storage for exactly-computed count tables.

Tables are stored as JSON, one file per (name, parameters) pair.  Counts
are written as decimal strings so arbitrarily large integers survive the
round trip exactly, and the payload carries a SHA-256 checksum; a stored
file that does not match its checksum, schema version or parameters is
ignored, which makes a stale or truncated cache equivalent to a cache
miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter

# Version of the stored tables.  A change to a stored table's keys or values,
# or to the file format, bumps it, so tables written before it are misses.
# 2: the transfer producers of vertex_profile and planar_census.
SCHEMA = 2


def _path(cache_dir: str, name: str, params: dict) -> str:
    tag = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()).hexdigest()[:16]
    return os.path.join(cache_dir, f"{name}-{tag}.json")


def _digest(entries) -> str:
    return hashlib.sha256(
        json.dumps(entries, sort_keys=True).encode()).hexdigest()


def store_census(cache_dir: str, name: str, params: dict, table) -> str:
    """Write a count table (a mapping from key tuples to integers) to the
    cache; returns the file path."""
    os.makedirs(cache_dir, exist_ok=True)
    entries = sorted([list(k), str(v)] for k, v in table.items() if v)
    payload = {
        "schema": SCHEMA,
        "name": name,
        "params": params,
        "entries": entries,
        "sha256": _digest(entries),
    }
    path = _path(cache_dir, name, params)
    # a private temporary file per writer, so concurrent stores of the same
    # table never interleave; the last os.replace wins with a whole file
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".store-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_census(cache_dir: str, name: str, params: dict):
    """Read a count table back as a Counter; None on any miss or
    mismatch."""
    path = _path(cache_dir, name, params)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if (not isinstance(payload, dict) or payload.get("schema") != SCHEMA
            or payload.get("name") != name
            or payload.get("params") != params):
        return None
    entries = payload.get("entries")
    if not isinstance(entries, list) or \
            payload.get("sha256") != _digest(entries):
        return None
    table = Counter()
    try:
        for key, value in entries:
            table[tuple(key)] = int(value)
    except (TypeError, ValueError):
        return None
    return table
