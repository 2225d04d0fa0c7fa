import json
import os
import struct
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodycomp import (
    BadMagicError,
    CohortError,
    GeometryMismatchError,
    HeaderError,
    LabelVolume,
    Sex,
    TruncatedPayloadError,
    UnknownDtypeError,
    UnknownKindError,
    UnitState,
    VolumeFormatError,
    VoxelVolume,
    read_cohort_csv,
    read_volume,
    to_hu,
    write_volume,
)
from bodycomp import model
from bodycomp.io import format_number, read_code_counts, read_header, read_slabs, write_slabs
from bodycomp.model import code_counts
from conftest import make_ct, make_tissue, make_vertebrae, random_tissue_codes


def volumes_equal(a, b):
    if type(a) is not type(b):
        return False
    if a.dims != b.dims or a.spacing_mm != b.spacing_mm:
        return False
    if a.z_positions_mm != b.z_positions_mm or a.subject_id != b.subject_id:
        return False
    if isinstance(a, VoxelVolume):
        return (
            a.unit_state is b.unit_state
            and a.rescale_slope == b.rescale_slope
            and a.rescale_intercept == b.rescale_intercept
            and np.array_equal(a.values, b.values)
        )
    return a.label_map == b.label_map and np.array_equal(a.codes, b.codes)


def test_ct_round_trip(tmp_path, rng):
    vals = rng.integers(-1024, 3000, size=(3, 4, 5), dtype=np.int16)
    ct = make_ct(vals, spacing=(0.7, 0.8, 2.5), slope=1.5, intercept=-1000.0,
                 z=(0.0, 2.5, 5.5), sid="case-7")
    path = tmp_path / "ct.bcv"
    write_volume(ct, path)
    again = read_volume(path)
    assert volumes_equal(ct, again)
    assert again.unit_state is UnitState.RAW


def test_label_round_trip_both_kinds(tmp_path, rng):
    tissue = make_tissue(random_tissue_codes(rng, (2, 3, 3)), sid="t")
    vert = make_vertebrae(np.array([[[0, 1], [2, 3]]]), sid="v")
    for vol, name in ((tissue, "t.bcv"), (vert, "v.bcv")):
        path = tmp_path / name
        write_volume(vol, path)
        assert volumes_equal(vol, read_volume(path))


def test_write_is_deterministic(tmp_path, rng):
    ct = make_ct(rng.integers(-5, 5, size=(2, 2, 2), dtype=np.int16))
    a, b = tmp_path / "a.bcv", tmp_path / "b.bcv"
    write_volume(ct, a)
    write_volume(ct, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_sends_the_array_buffer_without_a_copy(tmp_path):
    codes = np.arange(32 * 64 * 64).reshape(32, 64, 64)
    for vol in (make_tissue(codes % 5), make_ct(codes % 4001 - 2000, slope=0.5)):
        path = tmp_path / "v.bcv"
        tracemalloc.start()
        try:
            write_volume(vol, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the bytes a copy of the payload would have held
        payload = (
            vol.codes.tobytes()
            if isinstance(vol, LabelVolume)
            else vol.values.astype("<i2").tobytes()
        )
        assert peak < len(payload) / 8
        data = path.read_bytes()
        (header_len,) = struct.unpack("<Q", data[4:12])
        assert data[12 + header_len :] == payload


def test_payload_size_and_file_size(tmp_path):
    mask = make_tissue(np.zeros((1, 2, 2)))  # 2x2x1 u8 -> 4 payload bytes
    path = tmp_path / "m.bcv"
    write_volume(mask, path)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[4:12])
    assert len(data) == 12 + header_len + 4


def test_hu_volume_not_writable(tmp_path):
    hu = to_hu(make_ct(np.zeros((1, 1, 1))))
    with pytest.raises(VolumeFormatError):
        write_volume(hu, tmp_path / "x.bcv")


def _valid_file(tmp_path):
    path = tmp_path / "f.bcv"
    write_volume(make_tissue(np.ones((2, 2, 2))), path)
    return path


def _patch_header(path, **changes):
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    header.update(changes)
    raw = json.dumps(header).encode()
    path.write_bytes(data[:4] + struct.pack("<Q", len(raw)) + raw + data[12 + header_len :])


def test_bad_magic(tmp_path):
    path = _valid_file(tmp_path)
    data = path.read_bytes()
    path.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(BadMagicError):
        read_volume(path)


def test_truncated_payload(tmp_path):
    path = _valid_file(tmp_path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)


def test_payload_cut_after_the_size_check(tmp_path, monkeypatch):
    # the file shrinks between the size check and the payload read
    path = _valid_file(tmp_path)
    full = os.stat(path)
    path.write_bytes(path.read_bytes()[:-3])
    monkeypatch.setattr(os, "fstat", lambda fd: full)
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)


def test_truncated_header(tmp_path):
    path = _valid_file(tmp_path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)


def test_oversized_payload_is_header_error(tmp_path):
    path = _valid_file(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(HeaderError):
        read_volume(path)


def test_unknown_dtype(tmp_path):
    path = _valid_file(tmp_path)
    _patch_header(path, dtype="f64")
    with pytest.raises(UnknownDtypeError):
        read_volume(path)


def test_unknown_kind(tmp_path):
    path = _valid_file(tmp_path)
    _patch_header(path, kind="mri")
    with pytest.raises(UnknownKindError):
        read_volume(path)


def test_kind_dtype_validity_table(tmp_path):
    # tissue_labels must be u8; i16 is a header error even though both
    # dtype and kind are individually known
    path = _valid_file(tmp_path)
    _patch_header(path, dtype="i16")
    with pytest.raises(HeaderError):
        read_volume(path)


def test_dims_mismatch(tmp_path):
    path = _valid_file(tmp_path)
    _patch_header(path, dims=[2, 2, 9])
    with pytest.raises(TruncatedPayloadError):
        read_volume(path)


def test_bad_dims_type(tmp_path):
    path = _valid_file(tmp_path)
    _patch_header(path, dims=[2, 2])
    with pytest.raises(HeaderError):
        read_volume(path)


def test_header_invariant_violation(tmp_path):
    path = _valid_file(tmp_path)
    _patch_header(path, z_positions_mm=[0.0])  # wrong length for nz=2
    with pytest.raises(HeaderError):
        read_volume(path)


@pytest.mark.parametrize("key", ["rescale_slope", "rescale_intercept"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rescale_is_header_error(tmp_path, key, value):
    path = tmp_path / "ct.bcv"
    write_volume(make_ct(np.zeros((2, 2, 2))), path)
    _patch_header(path, **{key: value})  # json writes NaN / Infinity literals
    with pytest.raises(HeaderError, match="finite"):
        read_volume(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float32("nan")])
def test_format_number_refuses_non_finite(value):
    with pytest.raises(ValueError):
        format_number(value)
    assert format_number(1234567.0) == "1.23457e+06"


def test_garbage_header_json(tmp_path):
    path = _valid_file(tmp_path)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[4:12])
    raw = b"{" * header_len
    path.write_bytes(data[:12] + raw + data[12 + header_len :])
    with pytest.raises(HeaderError):
        read_volume(path)


@pytest.mark.parametrize(
    "changes",
    [
        {"label_map": [1, 2]},
        {"label_map": "sat"},
        {"kind": ["tissue_labels"]},
        {"dtype": {"u8": 1}},
        {"subject_id": 5},
        {"subject_id": ["a"]},
        {"spacing_mm": [1.0, 1.0, 10**400]},
    ],
)
def test_malformed_header_values_are_header_errors(tmp_path, changes):
    path = _valid_file(tmp_path)
    _patch_header(path, **changes)
    with pytest.raises(HeaderError):
        read_volume(path)


def test_over_long_header_integer_is_header_error(tmp_path):
    path = _valid_file(tmp_path)
    data = path.read_bytes()
    raw = b'{"kind": ' + b"9" * 5000 + b"}"
    path.write_bytes(data[:4] + struct.pack("<Q", len(raw)) + raw)
    with pytest.raises(HeaderError):
        read_volume(path)


def _load_or_format_error(path):
    """read_volume either returns a volume or raises a VolumeFormatError."""
    try:
        vol = read_volume(path)
    except VolumeFormatError:
        return
    assert isinstance(vol, (VoxelVolume, LabelVolume))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=8,
)
_HEADER_KEYS = (
    "kind", "dtype", "dims", "spacing_mm", "z_positions_mm", "subject_id",
    "label_map", "rescale_slope", "rescale_intercept",
)


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=64) | st.binary(max_size=64).map(lambda b: b"BCV1" + b))
def test_fuzz_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "v.bcv"
    path.write_bytes(data)
    _load_or_format_error(path)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["ct", "tissue"]),
    edits=st.dictionaries(st.sampled_from(_HEADER_KEYS), _JSON | st.just(None), max_size=3),
    cut=st.integers(0, 8),
    flip=st.none() | st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
)
def test_fuzz_mutated_valid_files(tmp_path_factory, kind, edits, cut, flip):
    path = tmp_path_factory.mktemp("fuzz") / "v.bcv"
    if kind == "ct":
        vol = make_ct(np.arange(8).reshape(2, 2, 2))
    else:
        vol = make_tissue(np.ones((2, 2, 2)))
    write_volume(vol, path)
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    for key, value in edits.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    raw = json.dumps(header).encode()
    data = bytearray(data[:4] + struct.pack("<Q", len(raw)) + raw + data[12 + header_len :])
    if cut:
        del data[-cut:]
    if flip is not None:
        at, bits = flip
        data[at % len(data)] ^= bits
    path.write_bytes(bytes(data))
    _load_or_format_error(path)


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(1, 6),
    ny=st.integers(1, 6),
    nz=st.integers(1, 5),
    kind=st.sampled_from(["ct", "tissue", "vertebrae"]),
    with_z=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_round_trip_identity_property(tmp_path_factory, nx, ny, nz, kind, with_z, seed):
    rng = np.random.default_rng(seed)
    z = tuple(np.cumsum(rng.uniform(0.5, 4.0, size=nz))) if with_z else None
    spacing = tuple(rng.uniform(0.3, 3.0, size=3))
    if kind == "ct":
        vol = make_ct(
            rng.integers(-1024, 3000, size=(nz, ny, nx), dtype=np.int16),
            spacing=spacing,
            slope=float(rng.uniform(0.5, 2)),
            intercept=float(rng.uniform(-1100, 0)),
            z=z,
        )
    elif kind == "tissue":
        vol = make_tissue(random_tissue_codes(rng, (nz, ny, nx)), spacing=spacing, z=z)
    else:
        vol = make_vertebrae(
            rng.integers(0, 4, size=(nz, ny, nx), dtype=np.uint8), spacing=spacing, z=z
        )
    path = tmp_path_factory.mktemp("rt") / "v.bcv"
    write_volume(vol, path)
    assert volumes_equal(vol, read_volume(path))


def test_cohort_csv_basic(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(
        "subject_id,age_years,sex,race,height_m\n"
        "p1,60.1,Female,White,1.70\n"
        "p2,45,male,Black/African American,\n"
        "p3,70,other,,1.55\n",
        encoding="utf-8",
    )
    records = read_cohort_csv(path)
    assert [r.subject_id for r in records] == ["p1", "p2", "p3"]
    assert records[0].age_years == 60.1
    assert records[0].sex is Sex.FEMALE
    assert records[0].race == "White"
    assert records[0].height_m == 1.70
    assert records[1].sex is Sex.MALE
    assert records[1].height_m is None  # blank height parses as absent
    assert records[2].sex is Sex.UNKNOWN


def test_cohort_csv_duplicate_id(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(
        "subject_id,age_years,sex,race,height_m\np1,60,Female,W,1.7\np1,61,Male,W,1.8\n"
    )
    with pytest.raises(CohortError):
        read_cohort_csv(path)


def test_cohort_csv_missing_column(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("subject_id,age_years,sex,race\np1,60,Female,W\n")
    with pytest.raises(CohortError):
        read_cohort_csv(path)


@pytest.mark.parametrize("bad", ["p1,abc,Female,W,1.7", "p1,60,Female,W,tall", "p1,-2,Female,W,1.7"])
def test_cohort_csv_bad_values(tmp_path, bad):
    path = tmp_path / "cohort.csv"
    path.write_text(f"subject_id,age_years,sex,race,height_m\n{bad}\n")
    with pytest.raises(CohortError):
        read_cohort_csv(path)


# ---- slab reads ---------------------------------------------------------------

def _write_tissue_with_z(tmp_path, rng, nz=9):
    codes = random_tissue_codes(rng, (nz, 4, 5))
    z = tuple(np.cumsum(rng.uniform(1.0, 3.0, nz)).round(3).tolist())
    vol = make_tissue(codes, z=z, sid="t")
    path = tmp_path / "tissue.bcv"
    write_volume(vol, path)
    return vol, path


def _set_payload_byte(path, index, value):
    data = bytearray(path.read_bytes())
    (header_len,) = struct.unpack("<Q", data[4:12])
    data[12 + header_len + index] = value
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("lo, hi", [(0, 9), (0, 1), (3, 6), (8, 9)])
def test_slab_read_is_that_slab_of_the_whole_read(tmp_path, rng, lo, hi):
    tissue, tissue_path = _write_tissue_with_z(tmp_path, rng)
    ct = make_ct(rng.integers(-1024, 3000, size=(9, 4, 5)), slope=0.7, z=tissue.z_positions_mm)
    ct_path = tmp_path / "ct.bcv"
    write_volume(ct, ct_path)
    for vol, path in ((tissue, tissue_path), (ct, ct_path)):
        slab = read_volume(path, slice(lo, hi))
        assert slab.geometry == vol.geometry.slab(slice(lo, hi))
        assert slab.z_positions_mm == vol.z_positions_mm[lo:hi]
        assert slab.subject_id == vol.subject_id
        stored = slab.values if isinstance(slab, VoxelVolume) else slab.codes
        whole = vol.values if isinstance(vol, VoxelVolume) else vol.codes
        assert np.array_equal(stored, whole[lo:hi])


# every read of part of a file, or of it a part at a time
PART_READS = {
    "slab": lambda path: read_volume(path, slice(3, 6)),
    "slabs1": lambda path: list(read_slabs(path, 1)),
    "slabs2": lambda path: list(read_slabs(path, 2)),
    "slabs9": lambda path: list(read_slabs(path, 9)),
    "counts": read_code_counts,
}


@pytest.mark.parametrize("reader", list(PART_READS))
@pytest.mark.parametrize("where", ["before", "inside", "after", "both", "inside+after", "all"])
def test_slab_read_fails_on_an_unmapped_code_outside_the_slab(tmp_path, rng, monkeypatch, where, reader):
    _, path = _write_tissue_with_z(tmp_path, rng)
    plane = 4 * 5
    # a code before slice 3, on slice 4 and after slice 5
    spots = {"before": (0, 200), "inside": (4 * plane + 7, 150), "after": (9 * plane - 1, 77)}
    parts = {"both": "before+after", "all": "before+inside+after"}.get(where, where).split("+")
    for part in parts:
        _set_payload_byte(path, *spots[part])
    # one slice per scanned chunk, so the code sits in a later chunk
    monkeypatch.setattr("bodycomp.io.SCAN_CHUNK_BYTES", plane)
    with pytest.raises(HeaderError) as whole:
        read_volume(path)
    assert f"codes {sorted(spots[p][1] for p in parts)} present" in str(whole.value)
    with pytest.raises(HeaderError) as read:
        PART_READS[reader](path)
    assert str(read.value) == str(whole.value)


def test_slab_read_of_a_file_cut_after_its_slab(tmp_path, rng):
    ct = make_ct(rng.integers(-1024, 3000, size=(9, 4, 5)))
    path = tmp_path / "ct.bcv"
    write_volume(ct, path)
    # the slices 0-5 are all there; 6-8 are cut
    path.write_bytes(path.read_bytes()[: -3 * 4 * 5 * 2])
    for read in (lambda: read_header(path), lambda: read_volume(path, slice(2, 5))):
        with pytest.raises(TruncatedPayloadError):
            read()


def test_slab_outside_the_volume_is_refused(tmp_path, rng):
    _, path = _write_tissue_with_z(tmp_path, rng)
    for z in (slice(5, 10), slice(4, 4), slice(-1, 3), slice(None, 5), slice(2, None)):
        with pytest.raises(IndexError):
            read_volume(path, z)


def test_read_header_is_the_header_of_read_volume(tmp_path, rng):
    vol, path = _write_tissue_with_z(tmp_path, rng)
    head = read_header(path)
    assert (head.kind, head.subject_id, head.geometry) == ("tissue_labels", "t", vol.geometry)
    assert head.payload_offset + vol.codes.nbytes == os.path.getsize(path)
    _patch_header(path, spacing_mm=[1.0, 0.0, 5.0])
    with pytest.raises(HeaderError):
        read_header(path)


@pytest.mark.parametrize("chunk_planes", [1, 2, 100])
def test_code_counts_read_in_chunks_are_those_of_the_volume(tmp_path, rng, monkeypatch, chunk_planes):
    vol, path = _write_tissue_with_z(tmp_path, rng)
    monkeypatch.setattr("bodycomp.io.SCAN_CHUNK_BYTES", chunk_planes * 4 * 5)
    head, counts = read_code_counts(path)
    assert head == read_header(path)
    assert np.array_equal(counts, code_counts(vol.codes))
    for z in range(vol.nz):
        assert np.array_equal(counts[z], np.bincount(vol.codes[z].ravel(), minlength=256))


def test_code_counts_refuse_what_read_volume_refuses(tmp_path, rng, monkeypatch):
    _, path = _write_tissue_with_z(tmp_path, rng)
    monkeypatch.setattr("bodycomp.io.SCAN_CHUNK_BYTES", 4 * 5)
    _set_payload_byte(path, 9 * 4 * 5 - 1, 77)
    with pytest.raises(HeaderError) as whole:
        read_volume(path)
    with pytest.raises(HeaderError) as counted:
        read_code_counts(path)
    assert str(counted.value) == str(whole.value)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedPayloadError):
        read_code_counts(path)
    ct_path = tmp_path / "ct.bcv"
    write_volume(make_ct(np.zeros((2, 2, 2))), ct_path)
    with pytest.raises(HeaderError, match="holds no label codes"):
        read_code_counts(ct_path)


@pytest.mark.parametrize("step", [1, 2, 4, 9])
def test_slabs_read_and_written_are_the_volume_and_its_file(tmp_path, rng, step):
    tissue, tissue_path = _write_tissue_with_z(tmp_path, rng)
    ct = make_ct(rng.integers(-1024, 3000, size=(9, 4, 5)), slope=0.7, z=tissue.z_positions_mm)
    ct_path = tmp_path / "ct.bcv"
    write_volume(ct, ct_path)
    for vol, path in ((tissue, tissue_path), (ct, ct_path)):
        slabs = list(read_slabs(path, step))
        starts = range(0, 9, step)
        assert [s.nz for s in slabs] == [min(step, 9 - lo) for lo in starts]
        for lo, slab in zip(starts, slabs):
            assert volumes_equal(slab, read_volume(path, slice(lo, lo + slab.nz)))
        out = tmp_path / "out.bcv"
        write_slabs(iter(slabs), vol.geometry, out)
        assert out.read_bytes() == path.read_bytes()


def test_slab_reads_name_every_unmapped_code_from_the_first_bad_slab_on(tmp_path, rng):
    _, path = _write_tissue_with_z(tmp_path, rng)
    plane = 4 * 5
    _set_payload_byte(path, 3 * plane, 200)
    _set_payload_byte(path, 9 * plane - 1, 77)
    with pytest.raises(HeaderError) as whole:
        read_volume(path)
    slabs = read_slabs(path, 2)
    assert next(slabs).nz == 2
    with pytest.raises(HeaderError) as slab:
        next(slabs)
    assert str(slab.value) == str(whole.value)
    assert "codes [77, 200] present" in str(slab.value)


def test_every_label_voxel_is_checked_once_per_read(tmp_path, rng, monkeypatch):
    vol, path = _write_tissue_with_z(tmp_path, rng)
    ct = make_ct(np.zeros((9, 4, 5)))
    write_volume(ct, tmp_path / "ct.bcv")
    # two slices per scanned chunk: the chunks and the slabs do not align
    monkeypatch.setattr("bodycomp.io.SCAN_CHUNK_BYTES", 2 * 4 * 5)
    checked = []
    unchecked = model.unmapped_codes

    def spy(codes, label_map):
        checked.append(np.array(codes))
        return unchecked(codes, label_map)

    monkeypatch.setattr("bodycomp.model.unmapped_codes", spy)
    monkeypatch.setattr("bodycomp.io.unmapped_codes", spy)
    reads = {
        "whole": partial(read_volume, path),
        **{f"slab {z}": partial(read_volume, path, z) for z in (slice(0, 3), slice(3, 6), slice(8, 9))},
        **{f"slabs {n}": lambda n=n: list(read_slabs(path, n)) for n in (1, 3, vol.nz)},
        "counts": partial(read_code_counts, path),
    }
    for name, read in reads.items():
        checked.clear()
        read()
        # the random planes tell which slice each checked plane is
        slices = [
            k for codes in checked for plane in codes
            for k in range(vol.nz) if np.array_equal(plane, vol.codes[k])
        ]
        assert sorted(slices) == list(range(vol.nz)), name
    checked.clear()
    read_volume(tmp_path / "ct.bcv", slice(3, 6))
    list(read_slabs(tmp_path / "ct.bcv", 2))
    assert checked == []


@pytest.mark.parametrize("step", [0, -1, -3])
def test_read_slabs_refuses_a_step_below_one_before_opening_the_file(tmp_path, step):
    # the file does not exist: opening it would raise FileNotFoundError
    with pytest.raises(ValueError, match=rf"^read_slabs step must be >= 1, got {step}$"):
        next(read_slabs(tmp_path / "missing.bcv", step))


def test_slabs_that_do_not_make_the_volume_leave_the_file_as_it_was(tmp_path, rng):
    vol, path = _write_tissue_with_z(tmp_path, rng)
    a, b, c = read_slabs(path, 3)

    def interrupted():
        yield a
        raise KeyboardInterrupt

    out = tmp_path / "out.bcv"
    out.write_bytes(b"before")
    refused = {
        "too few": ([a, b], VolumeFormatError),
        "too many": ([a, b, c, a], VolumeFormatError),
        "out of order": ([a, c, b], GeometryMismatchError),
        "another label map": ([a, replace(b, label_map={**b.label_map, 9: "x"}), c], VolumeFormatError),
        "another subject": ([a, replace(b, subject_id="u"), c], VolumeFormatError),
        "HU": ([to_hu(make_ct(np.zeros((9, 4, 5)), z=vol.z_positions_mm))], VolumeFormatError),
        "interrupted": (interrupted(), KeyboardInterrupt),
    }
    for slabs, error in refused.values():
        with pytest.raises(error):
            write_slabs(slabs, vol.geometry, out)
        assert out.read_bytes() == b"before"
        assert sorted(os.listdir(tmp_path)) == ["out.bcv", "tissue.bcv"]
