"""`bodycomp postprocess`: chunked streaming, the `--out` file and error messages."""

import gc
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import bodycomp.io as bcv_io
import bodycomp.postprocess
from bodycomp import (
    build_phantom,
    dilate_sat_to_skin,
    muscular_fat_candidates,
    write_volume,
)
from bodycomp.cli import main

MODES = ("sat-skin", "mf-filter")
STACKED = ((2, 3), (5, 6))  # slices of 6-pixel clusters stacked in z
LONE = 8  # the slice of a 7-pixel cluster


def _raw(hu, slope=0.7, intercept=-1024.0):
    return np.int16(round((hu - intercept) / slope))


def _volumes(nz=10, nx=48):
    """A noisy CT (slope 0.7, non-uniform z) and a tissue mask with two SAT
    codes. Muscular-fat clusters of 6 pixels sit at the same place on the
    slices of each ``STACKED`` pair, and one of 7 pixels on ``LONE``, each
    in a muscle window that passes no other candidate."""
    ph = build_phantom(nx=nx, ny=nx, nz=nz, rescale_slope=0.7, subject_id="p1")
    z = tuple(np.round(np.cumsum(np.linspace(1.0, 2.5, nz)), 3).tolist())
    noise = np.random.default_rng(5).integers(-150, 150, size=ph.ct.values.shape)
    values = (ph.ct.values + noise).astype(np.int16)
    codes = ph.tissue.codes.copy()
    codes[(codes == 2) & (np.arange(nx) % 2 == 0)] = 7
    window = (slice(2, 8), slice(20, 28))
    for k in [*sum(STACKED, ()), LONE]:
        values[k][window] = _raw(50.0)
        codes[k][window] = 1
        values[k, 3:5, 22:25] = _raw(-100.0)  # 2x3 = 6 pixels
        if k == LONE:
            values[k, 5, 22] = _raw(-100.0)
    ct = replace(ph.ct, values=values, z_positions_mm=z)
    tissue = replace(ph.tissue, codes=codes, label_map={**ph.tissue.label_map, 7: "sat"},
                     z_positions_mm=z)
    return ct, tissue


def _kernel(mode, ct, mask):
    return dilate_sat_to_skin(mask, ct) if mode == "sat-skin" else muscular_fat_candidates(ct, mask)


def _postprocess(tmp_path, mode, ct="ct.bcv", mask="mask.bcv", out="out.bcv"):
    return main(["postprocess", mode, "--ct", str(tmp_path / ct), "--mask", str(tmp_path / mask),
                 "--out", f"{tmp_path}/{out}"])


@pytest.fixture
def inputs(tmp_path):
    ct, tissue = _volumes()
    write_volume(ct, tmp_path / "ct.bcv")
    write_volume(tissue, tmp_path / "mask.bcv")
    return ct, tissue


def _recording_pieces(monkeypatch, mode):
    """The slices of each piece the command's kernel gets, recorded as it runs."""
    pieces = []
    # the command imports its kernel from bodycomp.postprocess when it runs
    if mode == "sat-skin":  # one call a piece
        real = bodycomp.postprocess.dilate_sat_to_skin
        monkeypatch.setattr(bodycomp.postprocess, "dilate_sat_to_skin",
                            lambda mask, ct: pieces.append(mask.nz) or real(mask, ct))
    else:  # one stream of every piece
        real = bodycomp.postprocess.muscular_fat_slabs

        def stream(steps):
            return real(map(lambda step: pieces.append(step[0].nz) or step, steps))

        monkeypatch.setattr(bodycomp.postprocess, "muscular_fat_slabs", stream)
    return pieces


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("slices", [1, 3, 7, 10], ids=["1", "3", "7", "whole"])
def test_chunked_output_is_the_whole_volume_kernel_output(tmp_path, monkeypatch, inputs, mode, slices):
    ct, tissue = inputs
    want = _kernel(mode, ct, tissue)
    if mode == "mf-filter":
        # the stacked clusters are dropped: a component never joins along z
        assert not want.codes[[k for pair in STACKED for k in pair], 2:8, 20:28].any()
        assert np.count_nonzero(want.codes[LONE, 3:6, 22:25]) == 7
    write_volume(want, tmp_path / "want.bcv")

    pieces = _recording_pieces(monkeypatch, mode)
    monkeypatch.setattr(bcv_io, "SCAN_CHUNK_BYTES", slices * ct.values[0].nbytes)
    assert _postprocess(tmp_path, mode) == 0
    # nz 10 is no multiple of 3 or 7: the last chunk is what is left
    assert pieces == [slices] * (10 // slices) + [10 % slices] * (10 % slices > 0)
    assert (tmp_path / "out.bcv").read_bytes() == (tmp_path / "want.bcv").read_bytes()


@pytest.mark.parametrize("mode", MODES)
def test_a_command_derives_its_raw_interval_once(tmp_path, monkeypatch, inputs, mode):
    # ten one-slice chunks, one kernel call each, and one rescale: the HU
    # of every int16 value is taken once
    bodycomp.postprocess._raw_interval.cache_clear()
    calls = []
    real = bodycomp.postprocess.rescale_to_hu
    monkeypatch.setattr(bodycomp.postprocess, "rescale_to_hu", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(bcv_io, "SCAN_CHUNK_BYTES", inputs[0].values[0].nbytes)
    assert _postprocess(tmp_path, mode, out="first.bcv") == 0
    assert len(calls) == 1 and calls[0][0].size == 1 << 16
    assert _postprocess(tmp_path, mode, out="again.bcv") == 0
    assert len(calls) == 1
    assert (tmp_path / "again.bcv").read_bytes() == (tmp_path / "first.bcv").read_bytes()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("target", ["ct.bcv", "mask.bcv"])
def test_out_may_name_an_input(tmp_path, monkeypatch, inputs, mode, target):
    monkeypatch.setattr(bcv_io, "SCAN_CHUNK_BYTES", 3 * inputs[0].values[0].nbytes)
    assert _postprocess(tmp_path, mode, out="fresh.bcv") == 0
    assert _postprocess(tmp_path, mode, out=target) == 0
    assert (tmp_path / target).read_bytes() == (tmp_path / "fresh.bcv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["ct.bcv", "fresh.bcv", "mask.bcv"]


@pytest.mark.parametrize("mode", MODES)
def test_out_gets_the_mode_of_a_new_file(tmp_path, inputs, mode):
    old = os.umask(0o027)
    try:
        assert _postprocess(tmp_path, mode) == 0
    finally:
        os.umask(old)
    assert (tmp_path / "out.bcv").stat().st_mode & 0o777 == 0o640


def _truncate(path, nbytes):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - nbytes)


def _set_codes(path, where):
    data = bytearray(path.read_bytes())
    for offset, code in where:
        data[offset] = code
    path.write_bytes(bytes(data))


PLANE = 48 * 48


def _fault(name, tmp_path, ct, tissue):
    """Damage the inputs; returns the mode, argv changes and the expected stderr."""
    c, m = tmp_path / "ct.bcv", tmp_path / "mask.bcv"
    if name == "truncated ct":
        _truncate(c, 7)
        n = 10 * PLANE * 2
        return "sat-skin", {}, f"bodycomp: {c}: payload has {n - 7} bytes, dims imply {n}\n"
    if name == "truncated mask":
        _truncate(m, PLANE)
        n = 10 * PLANE
        return "mf-filter", {}, f"bodycomp: {m}: payload has {n - PLANE} bytes, dims imply {n}\n"
    if name == "swapped kinds":
        return "mf-filter", {"ct": "mask.bcv", "mask": "ct.bcv"}, (
            f"bodycomp: {m}: expected a CT volume, got labels\n"
        )
    if name == "ct as mask":
        return "sat-skin", {"mask": "ct.bcv"}, f"bodycomp: {c}: expected a label volume, got CT\n"
    if name.startswith("geometry"):
        write_volume(replace(tissue, spacing_mm=(0.8, 1.0, 5.0)), m)
        ours, theirs = "(48, 48, 10) spacing (0.8, 1.0, 5.0)", "(48, 48, 10) spacing (1.0, 1.0, 5.0)"
        if name == "geometry sat-skin":  # the mask, then the CT
            return "sat-skin", {}, f"bodycomp: {m}: geometry mismatch: dims {ours} vs dims {theirs}\n"
        return "mf-filter", {}, f"bodycomp: {m}: geometry mismatch: dims {theirs} vs dims {ours}\n"
    if name == "no sat label":
        roi = replace(tissue, codes=(tissue.codes == 1).astype(np.uint8),
                      label_map={0: "background", 1: "roi"})
        write_volume(roi, m)
        return "sat-skin", {}, f"bodycomp: {m}: label 'sat' not in label map\n"
    if name.startswith("unmapped"):
        # code 11 on the last slice and code 9 on slice 1: the chunks of
        # slices before 1 are written before the first is found
        _set_codes(m, [(-1, 11), (-9 * PLANE, 9)])
        return name.split()[1], {}, (
            f"bodycomp: {m}: header violates volume invariants: "
            "codes [9, 11] present in volume but not in label_map\n"
        )
    raise AssertionError(name)


FAULTS = ["truncated ct", "truncated mask", "swapped kinds", "ct as mask", "geometry sat-skin",
          "geometry mf-filter", "no sat label", "unmapped sat-skin", "unmapped mf-filter"]


@pytest.mark.parametrize("fault", FAULTS)
def test_a_failing_run_reports_the_fault_and_leaves_out_as_it_was(
    tmp_path, capsys, monkeypatch, inputs, fault
):
    mode, names, want_err = _fault(fault, tmp_path, *inputs)
    (tmp_path / "out.bcv").write_bytes(b"an earlier output")
    listing = sorted(os.listdir(tmp_path))
    monkeypatch.setattr(bcv_io, "SCAN_CHUNK_BYTES", inputs[0].values[0].nbytes)
    capsys.readouterr()
    assert _postprocess(tmp_path, mode, **names) == 1
    assert capsys.readouterr() == ("", want_err)
    assert (tmp_path / "out.bcv").read_bytes() == b"an earlier output"
    assert sorted(os.listdir(tmp_path)) == listing


@pytest.mark.parametrize("out", ["missing/out.bcv", "folder", "folder/", "new/"])
def test_an_out_that_cannot_be_a_file_is_named_in_the_error(tmp_path, capsys, inputs, out):
    (tmp_path / "folder").mkdir()
    capsys.readouterr()
    assert _postprocess(tmp_path, "sat-skin", out=out) == 1
    path = f"{tmp_path}/{out}"
    errno = "[Errno 2] No such file or directory" if out.startswith("missing") else (
        "[Errno 21] Is a directory"
    )
    assert capsys.readouterr() == ("", f"bodycomp: {errno}: '{path}'\n")
    assert sorted(os.listdir(tmp_path)) == ["ct.bcv", "folder", "mask.bcv"]
    assert os.listdir(tmp_path / "folder") == []


@pytest.fixture(scope="module")
def ct_sized(tmp_path_factory):
    """256x256 phantoms of 48 and 192 slices: 1.5 and 6 CT chunks."""
    paths = {}
    for nz in (48, 192):
        folder = tmp_path_factory.mktemp(f"nz{nz}")
        ph = build_phantom(nx=256, ny=256, nz=nz, rescale_slope=0.7, subject_id="p1")
        write_volume(ph.ct, folder / "ct.bcv")
        write_volume(ph.tissue, folder / "mask.bcv")
        paths[nz] = folder
    return paths


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("nz", [48, 192])
def test_peak_memory_is_a_few_chunks_whatever_the_slices(ct_sized, mode, nz):
    # the chunk being made (SCAN_CHUNK_BYTES of CT, half that of mask and
    # of output), the output before it and the kernels' scratch; a
    # whole-volume run holds 4 bytes per voxel, 48 MiB at nz 192
    budget = 4 * bcv_io.SCAN_CHUNK_BYTES
    gc.collect()
    tracemalloc.start()
    try:
        code = _postprocess(ct_sized[nz], mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= budget
