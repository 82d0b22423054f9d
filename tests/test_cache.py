import struct

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import hdfc_version_1, traced_peak
from corruption import DiskFull, corruptions, load_bytes, saved_bytes
from scenefuse import binfile
from scenefuse.cache import (
    CacheBadMagicError, CacheDimensionError, CacheFileError, CacheTruncatedError,
    CacheVersionError, load_cache, save_cache,
)

VALID = saved_bytes(
    lambda matrix, path: save_cache(path, [0, 1, 2], [f"c{i}/img.ppm" for i in range(3)],
                                    [(60 + i, 10**18 + i) for i in range(3)], matrix),
    np.arange(4, dtype=np.float32) + np.arange(3, dtype=np.float32)[:, None],
)
# magic, header and record 0's label, path length and stamp take 40 bytes
NON_UTF8_PATH = VALID[:40] + b"\xff" + VALID[41:]


def rows(rng, count, dim):
    """(labels, paths, stamps, matrix) for `count` rows of `dim` values."""
    paths = [f"images/class_{i % 3}/img_{i}.ppm" for i in range(count)]
    stamps = [(1000 + i, 1_700_000_000 * 10**9 + i) for i in range(count)]
    return (np.arange(count) % 3, paths, stamps,
            rng.normal(0, 1, (count, dim)).astype(np.float32))


@pytest.fixture
def records(rng):
    return rows(rng, 7, 16)


def test_round_trip_bit_identical(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *records)
    first = path.read_bytes()
    labels, paths, stamps, matrix = load_cache(str(path))
    assert np.array_equal(labels, records[0]) and paths == records[1]
    assert stamps == records[2]
    assert matrix.dtype == np.float32 and matrix.flags.c_contiguous
    assert np.array_equal(matrix, records[3])
    save_cache(str(path), labels, paths, stamps, matrix)
    assert path.read_bytes() == first


@pytest.mark.parametrize("stamp", [(7, -1), (2**32, 5), (2**64 - 1, -(2**63)),
                                   (0, 2**63 - 1)],
                         ids=["pre-1970", "4-GiB", "extremes-low", "extremes-high"])
def test_stamp_round_trips_exactly(stamp, tmp_path):
    path = str(tmp_path / "f.hdfc")
    save_cache(path, [0], ["a.ppm"], [stamp], np.ones((1, 2)))
    assert load_cache(path)[2] == [stamp]


@pytest.fixture
def mib_of_records(rng):
    """64 records of 4096 values, 1 MiB in all."""
    return rows(rng, 64, 4096)


def test_load_holds_no_copy_of_the_file(mib_of_records, tmp_path):
    # a buffer of the whole file, a second copy of each record, or records
    # stacked into a matrix would almost double the peak
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *mib_of_records)
    (_, _, _, matrix), peak = traced_peak(lambda: load_cache(str(path)))
    assert peak <= 1.1 * matrix.nbytes


def test_save_holds_no_copy_of_the_file(mib_of_records, tmp_path):
    # joining the records, or a bytes copy of each row, would put a second
    # copy of the file on the heap
    path = tmp_path / "f.hdfc"
    _, peak = traced_peak(lambda: save_cache(str(path), *mib_of_records))
    assert peak <= 0.1 * path.stat().st_size


def test_count_past_the_file_end_allocates_nothing(records, tmp_path):
    # the count is checked against the bytes left before it sizes the matrix;
    # each record needs at least its 24-byte header and its 16 values
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *records)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 12, 2**32 - 1)
    path.write_bytes(bytes(data))
    error, peak = traced_peak(
        lambda: pytest.raises(CacheTruncatedError, load_cache, str(path)))
    assert f"need {(2**32 - 1) * (24 + 4 * 16)} bytes" in str(error.value)
    assert "records" in str(error.value)
    assert peak < 64 * 1024


@pytest.mark.parametrize("previous", [False, True])
def test_failed_write_leaves_previous_file(records, tmp_path, monkeypatch, previous):
    path = tmp_path / "f.hdfc"
    if previous:
        save_cache(str(path), *records)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(binfile, "open", lambda *a, **kw: DiskFull(open(*a, **kw)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_cache(str(path), *(part[:3] for part in records))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_bad_magic(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *records)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(CacheBadMagicError):
        load_cache(str(path))


def test_truncated(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *records)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CacheTruncatedError):
        load_cache(str(path))


def test_version_rejected(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *records)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 4, 9)
    path.write_bytes(bytes(data))
    with pytest.raises(CacheVersionError):
        load_cache(str(path))


def test_version_1_asks_for_a_new_extraction(records, tmp_path):
    labels, paths, _, matrix = records
    path = tmp_path / "f.hdfc"
    path.write_bytes(hdfc_version_1(labels, paths, matrix))
    with pytest.raises(CacheVersionError, match="cache version 1.*extract the features again"):
        load_cache(str(path))


def test_dimension_mismatch_on_expectation(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *records)
    with pytest.raises(CacheDimensionError, match="16"):
        load_cache(str(path), expect_dim=2048)


def test_record_dim_checked_on_save(records, tmp_path):
    labels, paths, stamps, matrix = records
    with pytest.raises(CacheDimensionError):
        save_cache(str(tmp_path / "f.hdfc"), labels[:-1], paths, stamps, matrix)
    with pytest.raises(CacheDimensionError):
        save_cache(str(tmp_path / "f.hdfc"), labels, paths, stamps[:-1], matrix)
    with pytest.raises(CacheDimensionError):
        save_cache(str(tmp_path / "f.hdfc"), labels[:1], paths[:1], stamps[:1], matrix[0])
    assert list(tmp_path.iterdir()) == []


def test_trailing_bytes_rejected(records, tmp_path):
    path = tmp_path / "f.hdfc"
    save_cache(str(path), *records)
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
