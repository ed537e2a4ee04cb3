"""Fault injection on the campaign cache's record files.

A record cut short mid-file (a crash or a full disk on a filesystem
without atomic rename, a partial copy between hosts) must read as a
miss, and a campaign over it must re-run the cell and store a clean
record. A store that hits a full disk (``ENOSPC``) in its temp write or
its rename must fail loudly, leave no temp file in the shard, and leave
every record stored before it loadable.
"""

import errno
import os

import pytest

from repro.engine import CampaignCache, CampaignSpec, plan_campaign, run_campaign
from repro.engine import cache as cache_module
from repro.network.scenarios import default_uplink_scenario


def _spec():
    return CampaignSpec(
        scenario=default_uplink_scenario(4),
        root_seed=2024,
        n_locations=2,
        n_traces=1,
        schemes=("tdma", "buzz"),
    )


def _enospc(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestTruncatedRecord:
    @pytest.mark.parametrize("cut", ["one-byte", "half", "all-but-one-byte"])
    def test_truncated_record_is_a_miss_and_rerun(self, tmp_path, cut):
        spec = _spec()
        clean = run_campaign(spec).to_json()
        assert run_campaign(spec, cache_dir=str(tmp_path)).to_json() == clean
        cache = CampaignCache(tmp_path)
        keys = plan_campaign(spec).keys
        path = cache._path(keys[1])
        good = path.read_bytes()
        keep = {"one-byte": 1, "half": len(good) // 2, "all-but-one-byte": len(good) - 1}
        path.write_bytes(good[: keep[cut]])
        assert cache.load_key(keys[1]) is None
        # The other records are untouched.
        assert all(cache.load_key(key) is not None for key in keys if key != keys[1])
        assert run_campaign(spec, cache_dir=str(tmp_path)).to_json() == clean
        assert path.read_bytes() == good


class TestStoreOnFullDisk:
    def _stored(self, tmp_path):
        """A cache holding every cell of the spec but the last, plus that
        cell's key and run."""
        spec = _spec()
        result = run_campaign(spec)
        keys = plan_campaign(spec).keys
        cache = CampaignCache(tmp_path)
        for key, run in zip(keys[:-1], result.runs[:-1]):
            cache.store_key(key, run)
        return cache, keys, result.runs

    def _assert_intact(self, cache, keys, runs, path):
        assert not list(path.parent.glob("*.tmp"))
        assert not list(cache.root.glob("*/*.tmp"))
        for key, run in zip(keys[:-1], runs[:-1]):
            assert cache.load_key(key).to_dict() == run.to_dict()

    def test_temp_write_enospc_propagates_and_cleans_up(self, tmp_path, monkeypatch):
        cache, keys, runs = self._stored(tmp_path)
        real_fdopen = os.fdopen

        class FullDisk:
            """A temp file that takes half the payload, then runs out of space."""

            def __init__(self, fd, mode):
                self._handle = real_fdopen(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def write(self, data):
                self._handle.write(data[: len(data) // 2])
                self._handle.flush()
                _enospc()

        monkeypatch.setattr(cache_module.os, "fdopen", FullDisk)
        with pytest.raises(OSError) as raised:
            cache.store_key(keys[-1], runs[-1])
        assert raised.value.errno == errno.ENOSPC
        monkeypatch.undo()
        path = cache._path(keys[-1])
        assert not path.exists()
        assert cache.load_key(keys[-1]) is None
        self._assert_intact(cache, keys, runs, path)

    @pytest.mark.parametrize("existing", [False, True])
    def test_rename_enospc_propagates_and_cleans_up(self, tmp_path, monkeypatch, existing):
        cache, keys, runs = self._stored(tmp_path)
        path = cache._path(keys[-1])
        if existing:
            cache.store_key(keys[-1], runs[-1])
            good = path.read_bytes()
        monkeypatch.setattr(cache_module.os, "replace", _enospc)
        with pytest.raises(OSError) as raised:
            cache.store_key(keys[-1], runs[-1])
        assert raised.value.errno == errno.ENOSPC
        monkeypatch.undo()
        if existing:
            # The record the failed store would have replaced still loads.
            assert path.read_bytes() == good
            assert cache.load_key(keys[-1]).to_dict() == runs[-1].to_dict()
        else:
            assert not path.exists()
        self._assert_intact(cache, keys, runs, path)
