import hashlib
import threading
from collections import Counter

import pytest

from unimaps import cache
from unimaps.cache import load_census, store_census
from unimaps.enumeration import planar_census, vertex_profile


def table(offset):
    t = Counter()
    t[(2, 1)] = 5 + offset
    t[(2, 3)] = 2
    return t


class TestStoreCensus:
    def test_concurrent_stores_leave_one_whole_file(self, tmp_path):
        errors = []

        def store(offset):
            try:
                for _ in range(20):
                    store_census(str(tmp_path), "demo", {"n": 2},
                                 table(offset))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        workers = [threading.Thread(target=store, args=(k,))
                   for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive()
        assert errors == []
        files = list(tmp_path.iterdir())
        assert len(files) == 1 and files[0].suffix == ".json"
        loaded = load_census(str(tmp_path), "demo", {"n": 2})
        assert loaded in [table(k) for k in range(4)]

    def test_failed_store_removes_its_temporary_file(self, tmp_path,
                                                     monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cache.os, "replace", fail)
        with pytest.raises(OSError):
            store_census(str(tmp_path), "demo", {"n": 2}, table(0))
        assert list(tmp_path.iterdir()) == []


def test_older_schema_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setattr(cache, "SCHEMA", 1)
    store_census(str(tmp_path), "demo", {"n": 2}, table(0))
    assert load_census(str(tmp_path), "demo", {"n": 2}) == table(0)
    monkeypatch.undo()
    assert load_census(str(tmp_path), "demo", {"n": 2}) is None


def one_face_row(n, orientable):
    """The table that ``census unicellular-* --n n`` stores."""
    return Counter({key: count for key, count in
                    vertex_profile(n, orientable).items() if key[0] == n})


@pytest.mark.parametrize("name, params, build, digest", [
    ("planar-pqr", {"max_edges": 4}, lambda: planar_census(4),
     "a34907dbf1e378bdb1c1e691b54479fed68c5875e428c9476b0ca01e717f6726"),
    ("unicellular-orientable", {"n": 10}, lambda: one_face_row(10, True),
     "6fd14cdb34611ed842cb3612056b3d14ae53d3fb8aaf974b34e8918b72f994fe"),
    ("unicellular-general", {"n": 10}, lambda: one_face_row(10, False),
     "acdff16ab2f74a2a26b19fccad817f64d460dc25177eedab14c44835f36835c5"),
], ids=["planar-pqr", "unicellular-orientable", "unicellular-general"])
def test_stored_census_bytes_are_pinned(tmp_path, name, params, build,
                                        digest):
    """The file of ``census planar-pqr --max-edges 4``, ``census
    unicellular-orientable --n 10`` and ``census unicellular-general --n
    10`` under schema 2, the same whatever order the table was filled in.
    A producer that changes one of these files without a new schema
    would leave the files that older code stored being read as current."""
    assert cache.SCHEMA == 2
    census = build()
    backward = Counter()
    for key in sorted(census, reverse=True):
        backward[key] = census[key]
    for k, filled in enumerate((census, backward)):
        path = store_census(str(tmp_path / str(k)), name, params, filled)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
