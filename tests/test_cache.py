import errno

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import traced_peak
from corruption import corruptions, load_bytes, saved_bytes
from scenefuse import cache
from scenefuse.cache import (
    CacheBadMagicError, CacheDimensionError, CacheFileError, CacheTruncatedError,
    CacheVersionError, FeatureRecord, load_cache, save_cache,
)

VALID = saved_bytes(
    lambda records, path: save_cache(path, 4, records),
    [FeatureRecord(label=i, path=f"c{i}/img.ppm",
                   values=np.arange(4, dtype=np.float32) + i) for i in range(3)],
)
# magic, header and record 0's label and path length take 24 bytes
NON_UTF8_PATH = VALID[:24] + b"\xff" + VALID[25:]


@pytest.fixture
def records(rng):
    return [
        FeatureRecord(label=i % 3, path=f"images/class_{i % 3}/img_{i}.ppm",
                      values=rng.normal(0, 1, 16).astype(np.float32))
        for i in range(7)
    ]


def test_round_trip_bit_identical(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), 16, records)
    first = path.read_bytes()
    dim, loaded = load_cache(str(path))
    assert dim == 16
    assert [(r.label, r.path) for r in loaded] == [(r.label, r.path) for r in records]
    for a, b in zip(loaded, records):
        assert np.array_equal(a.values, b.values)
    save_cache(str(path), 16, loaded)
    assert path.read_bytes() == first


@pytest.fixture
def mib_of_records(rng):
    """64 records of 4096 values, 1 MiB in all."""
    return [FeatureRecord(label=i % 3, path=f"c{i % 3}/img_{i}.ppm",
                          values=rng.normal(0, 1, 4096).astype(np.float32))
            for i in range(64)]


def test_load_holds_no_copy_of_the_file(mib_of_records, tmp_path):
    # a buffer of the whole file or a second copy of each record would
    # almost double the peak
    path = tmp_path / "f.hdfc"
    save_cache(str(path), 4096, mib_of_records)
    (_, loaded), peak = traced_peak(lambda: load_cache(str(path)))
    assert peak <= 1.1 * sum(r.values.nbytes for r in loaded)


def test_save_holds_no_copy_of_the_file(mib_of_records, tmp_path):
    # joining the records, or a bytes copy of each record's values, would
    # put a second copy of the file on the heap
    path = tmp_path / "f.hdfc"
    _, peak = traced_peak(lambda: save_cache(str(path), 4096, mib_of_records))
    assert peak <= 0.1 * path.stat().st_size


class _DiskFull:
    """An open file whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("previous", [False, True])
def test_failed_write_leaves_previous_file(records, tmp_path, monkeypatch, previous):
    path = tmp_path / "f.hdfc"
    if previous:
        save_cache(str(path), 16, records)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(cache, "open", lambda *a, **kw: _DiskFull(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_cache(str(path), 16, records[:3])
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_bad_magic(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), 16, records)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(CacheBadMagicError):
        load_cache(str(path))


def test_truncated(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), 16, records)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CacheTruncatedError):
        load_cache(str(path))


def test_version_rejected(records, tmp_path):
    import struct

    path = tmp_path / "f.hdfc"
    save_cache(str(path), 16, records)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 4, 9)
    path.write_bytes(bytes(data))
    with pytest.raises(CacheVersionError):
        load_cache(str(path))


def test_dimension_mismatch_on_expectation(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), 16, records)
    with pytest.raises(CacheDimensionError, match="16"):
        load_cache(str(path), expect_dim=2048)


def test_record_dim_checked_on_save(records, tmp_path):
    with pytest.raises(CacheDimensionError):
        save_cache(str(tmp_path / "f.hdfc"), 32, records)


def test_trailing_bytes_rejected(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), 16, records)
    path.write_bytes(path.read_bytes() + b"z")
    with pytest.raises(CacheFileError, match="trailing"):
        load_cache(str(path))


@settings(max_examples=300, deadline=None)
@given(corruptions(VALID))
@example(NON_UTF8_PATH)
def test_corrupted_file_raises_only_cache_file_error(data):
    try:
        load_bytes(load_cache, data)
    except CacheFileError:
        pass
