import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import traced_peak
from corruption import corruptions, load_bytes, saved_bytes
from scenefuse.binfile import BoundedReader
from scenefuse.engine import validate_bundle, vgg16_spec
from scenefuse.weights import (
    BadMagicError, ConvEntry, ShapeError, TruncatedFileError, WeightBundle,
    WeightFileError, load_weights, random_bundle, save_weights,
)


def small_bundle():
    spec = (4, 2)
    return random_bundle(spec, seed=7, means=(10.0, 20.0, 30.0))


@pytest.fixture
def bundle():
    return small_bundle()


VALID = saved_bytes(save_weights, small_bundle())
# header (magic, version, means, count) is 24 bytes; entry 0 is named "conv0"
NAME_AT, DIMS_AT = 28, 33
HUGE_DIMS = (VALID[:DIMS_AT] + struct.pack("<4I", 2 ** 31, 2 ** 31, 2 ** 31, 4)
             + VALID[DIMS_AT + 16:])
NON_UTF8_NAME = VALID[:NAME_AT] + b"\xff" + VALID[NAME_AT + 1:]


def test_round_trip_bit_identical(bundle, tmp_path):
    path = tmp_path / "w.hdfw"
    save_weights(bundle, str(path))
    first = path.read_bytes()
    loaded = load_weights(str(path))
    for a, b in zip(loaded.entries, bundle.entries):
        assert a.name == b.name
        assert np.array_equal(a.kernel, b.kernel)
        assert np.array_equal(a.bias, b.bias)
    assert np.array_equal(loaded.means, bundle.means)
    save_weights(loaded, str(path))
    assert path.read_bytes() == first


def test_load_holds_no_copy_of_the_file(tmp_path):
    # a 3->256 conv, then three 256->256 ones, 7 MB of kernels: a buffer of the
    # whole file or a second copy of each array would more than double the peak
    spec = (256,) * 4
    path = tmp_path / "w.hdfw"
    save_weights(random_bundle(spec, seed=0), str(path))
    loaded, peak = traced_peak(lambda: load_weights(str(path)))
    arrays = loaded.means.nbytes + sum(e.kernel.nbytes + e.bias.nbytes
                                       for e in loaded.entries)
    assert peak <= 1.1 * arrays


def test_save_holds_no_copy_of_the_file(tmp_path):
    # the same 7 MB of kernels: joining the fields, or a bytes copy of each
    # array, would put a second copy of the file on the heap
    bundle = random_bundle((256,) * 4, seed=0)
    path = tmp_path / "w.hdfw"
    _, peak = traced_peak(lambda: save_weights(bundle, str(path)))
    assert peak <= 0.1 * path.stat().st_size


def test_bad_magic(bundle, tmp_path):
    path = tmp_path / "w.hdfw"
    save_weights(bundle, str(path))
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        load_weights(str(path))


def test_truncated_file(bundle, tmp_path):
    path = tmp_path / "w.hdfw"
    save_weights(bundle, str(path))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 10])
    with pytest.raises(TruncatedFileError):
        load_weights(str(path))


@pytest.mark.parametrize("read", [lambda rd: rd.take(8, "name"),
                                  lambda rd: rd.f32s(2, "kernel data")],
                         ids=["take", "f32s"])
def test_file_cut_short_after_open_is_truncation(bundle, tmp_path, read):
    path = tmp_path / "w.hdfw"
    save_weights(bundle, str(path))
    with open(path, "rb") as fh:
        rd = BoundedReader(fh, str(path), TruncatedFileError, "bundle")
        os.truncate(path, 30)  # the reader still counts the bytes it saw at open
        rd.take(24, "header")
        with pytest.raises(TruncatedFileError, match="need 8 bytes at offset 24, have 6"):
            read(rd)


def test_entry_count_mismatch_is_truncation(bundle, tmp_path):
    # header declares one more entry than the file contains
    import struct

    path = tmp_path / "w.hdfw"
    save_weights(bundle, str(path))
    data = bytearray(path.read_bytes())
    count_offset = 4 + 4 + 12  # magic, version, means
    declared = struct.unpack_from("<I", data, count_offset)[0]
    struct.pack_into("<I", data, count_offset, declared + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(TruncatedFileError):
        load_weights(str(path))


def test_bias_dim_mismatch_is_shape_error(bundle, tmp_path):
    import struct

    path = tmp_path / "w.hdfw"
    save_weights(bundle, str(path))
    data = bytearray(path.read_bytes())
    # first entry header: magic(4) version(4) means(12) count(4) namelen(4) name
    name_len = struct.unpack_from("<I", data, 24)[0]
    dims_offset = 28 + name_len
    kernel_bytes = 4 * 3 * 3 * 3 * 4  # first entry kernel is (4, 3, 3, 3) f32
    bias_dim_offset = dims_offset + 16 + kernel_bytes
    struct.pack_into("<I", data, bias_dim_offset, 7)
    path.write_bytes(bytes(data))
    with pytest.raises(ShapeError, match="bias dim"):
        load_weights(str(path))


def test_trailing_bytes_rejected(bundle, tmp_path):
    path = tmp_path / "w.hdfw"
    save_weights(bundle, str(path))
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(ShapeError, match="trailing"):
        load_weights(str(path))


def test_validate_against_wrong_spec(bundle):
    with pytest.raises(ValueError, match="entries"):
        validate_bundle(vgg16_spec(), bundle)


def test_random_bundle_fits_canonical():
    spec = vgg16_spec()
    bundle = random_bundle(spec, seed=0)
    validate_bundle(spec, bundle)
    assert len(bundle.entries) == 13
    assert bundle.entries[0].kernel.shape == (64, 3, 3, 3)
    assert bundle.entries[-1].kernel.shape == (512, 512, 3, 3)


def test_out_of_range_means_rejected():
    spec = (2,)
    bundle = WeightBundle(
        entries=random_bundle(spec, seed=0).entries,
        means=np.array([300.0, 0.0, 0.0], dtype=np.float32),
    )
    with pytest.raises(ValueError, match="means"):
        validate_bundle(spec, bundle)


def test_huge_kernel_dims_are_truncation():
    # their product overflows 64 bits; it must not wrap to a small size
    with pytest.raises(TruncatedFileError):
        load_bytes(load_weights, HUGE_DIMS)


@settings(max_examples=300, deadline=None)
@given(corruptions(VALID))
@example(HUGE_DIMS)
@example(NON_UTF8_NAME)
def test_corrupted_file_raises_only_weight_file_error(data):
    try:
        load_bytes(load_weights, data)
    except WeightFileError:
        pass
