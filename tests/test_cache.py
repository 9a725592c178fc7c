import threading

import pytest

from unimaps import cache
from unimaps.cache import load_census, store_census
from unimaps.enumeration import CountTable


def table(offset):
    t = CountTable()
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
