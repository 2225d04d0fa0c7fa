"""The golden CLI corpus: every command, run in process on generated inputs.

``generate(root)`` writes the inputs under ``root/in`` (phantoms from
``build_phantom``, volumes from ``write_volume`` and single faults made by
rewriting a header or a payload byte), then runs each command through
``cli.main`` from its own directory ``root/runs/<name>``, with relative
paths, so that no message names ``root``. Each run is recorded as its
argv, exit code, stdout, stderr, the warnings it raised and the sha256
of every file it wrote. No binary fixture is committed: the inputs are
made anew each time, byte for byte the same.

``golden_corpus.json`` holds the record, with the Python and numpy
versions it was made with; ``test_golden_corpus.py`` regenerates it and
compares it entry by entry. A change that alters an output byte
regenerates the file in the same commit::

    PYTHONPATH=src python tests/golden_corpus.py

and ``--check`` regenerates the runs without writing: it prints each
entry added, removed or changed against the file, and exits 1 if any is::

    PYTHONPATH=src python tests/golden_corpus.py --check
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import struct
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from bodycomp import LabelVolume, build_phantom, cli, write_volume

CORPUS = Path(__file__).with_name("golden_corpus.json")

POLICIES = ("muscle", "sat", "vat", "separate")
SLOPES = (1.0, 0.7, 0.123)
INTERCEPTS = (-1024.0, -1000.5)
SHAPE = (48, 48, 30)
SPACING = (1.0, 1.0, 2.5)

# where the phantom of SHAPE puts its levels, as build_phantom places them
T12, L3, L4 = 24, 14, 6

# subjects run as the good ones are, but left out of the manifest
EDGES = ("degen", "nomuscle_l3", "nosat_l3", "slabgrid")


def _sid(slope: float, intercept: float) -> str:
    return f"s{slope:g}_i{intercept:g}"


def _rewrite(path: Path, drop=(), payload: dict[int, int] | None = None, **changes) -> None:
    """Rewrite the `.bcv` file ``path`` with header keys changed or dropped
    and payload bytes set (``payload`` maps a byte index to its value)."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[4:12])
    header = json.loads(data[12 : 12 + header_len])
    header.update(changes)
    for key in drop:
        del header[key]
    body = bytearray(data[12 + header_len :])
    for index, value in (payload or {}).items():
        body[index] = value
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(data[:4] + struct.pack("<Q", len(raw)) + raw + bytes(body))


def _write_triple(folder: Path, sid: str, ct, tissue, vertebrae) -> None:
    for name, vol in (("ct", ct), ("tissue", tissue), ("vertebrae", vertebrae)):
        write_volume(vol, folder / f"{sid}_{name}.bcv")


def _prediction(tissue: LabelVolume) -> LabelVolume:
    """A predicted mask that differs from ``tissue``: shifted one column,
    and every third slice one row too."""
    codes = np.roll(tissue.codes, 1, axis=2)
    codes[::3] = np.roll(codes[::3], 1, axis=1)
    return replace(tissue, codes=codes)


def _wide_ct(ph):
    """The phantom's CT with raw values near 32767 and 1 at slope 0.7,
    intercept 0: muscle densities that spread over many magnitudes."""
    raw = np.where(ph.tissue.codes == 1, 32767, 1).astype(np.int16)
    raw[:, ::2, ::3] -= 7
    raw[1::2] += (raw[1::2] < 100).astype(np.int16)
    return replace(ph.ct, values=raw, rescale_slope=0.7, rescale_intercept=0.0)


def _write_slab_grid(folder: Path) -> None:
    """The "slabgrid" triple and prediction: 2x2x3 volumes at z 0, 1 and 2
    with every vertebra level on slice 2, their spacing then rewritten to
    (1e150, 1e150, 1e8) mm."""
    base = build_phantom(*SHAPE, SPACING)
    grid = {"spacing_mm": (1.0, 1.0, 1.0), "z_positions_mm": (0.0, 1.0, 2.0), "subject_id": "slabgrid"}
    tissue = np.array([[[1, 2], [3, 4]], [[1, 1], [2, 3]], [[1, 2], [3, 4]]], dtype=np.uint8)
    vertebrae = np.zeros((3, 2, 2), dtype=np.uint8)
    vertebrae[2] = [[1, 2], [3, 0]]
    ct = np.where(tissue == 1, 1072, 919).astype(np.int16)
    volumes = {
        "ct": replace(base.ct, values=ct, **grid),
        "tissue": replace(base.tissue, codes=tissue, **grid),
        "vertebrae": replace(base.vertebrae, codes=vertebrae, **grid),
        "pred": replace(base.tissue, codes=tissue[:, ::-1], **grid),
    }
    for name, vol in volumes.items():
        path = folder / f"slabgrid_{name}.bcv"
        write_volume(vol, path)
        _rewrite(path, spacing_mm=[1e150, 1e150, 1e8])


def make_inputs(folder: Path) -> list[str]:
    """Write every input under ``folder``; returns the ids of the subjects without a fault."""
    folder.mkdir(parents=True)
    good = []
    for slope in SLOPES:
        for intercept in INTERCEPTS:
            sid = _sid(slope, intercept)
            ph = build_phantom(*SHAPE, SPACING, slope, intercept, subject_id=sid)
            _write_triple(folder, sid, ph.ct, ph.tissue, ph.vertebrae)
            write_volume(_prediction(ph.tissue), folder / f"{sid}_pred.bcv")
            good.append(sid)
    base = build_phantom(*SHAPE, SPACING, subject_id="base")
    assert (base.t12_slice, base.l3_slice, base.l4_slice) == (T12, L3, L4)

    # non-uniform z: steps of 2, 2.5 and 3 mm in turn
    z = tuple(float(v) for v in np.cumsum([2.0, 2.5, 3.0] * (SHAPE[2] // 3)))
    zvar = [
        replace(v, z_positions_mm=z, subject_id="zvar")
        for v in (base.ct, base.tissue, base.vertebrae, _prediction(base.tissue))
    ]
    _write_triple(folder, "zvar", *zvar[:3])
    write_volume(zvar[3], folder / "zvar_pred.bcv")
    # a 320x320x12 CT of wide raw values
    wide = build_phantom(320, 320, 12, (0.7, 0.7, 3.0), subject_id="wide")
    _write_triple(folder, "wide", _wide_ct(wide), wide.tissue, wide.vertebrae)
    write_volume(_prediction(wide.tissue), folder / "wide_pred.bcv")
    # slope 0 with intercepts +0.0 and -0.0: every HU is that zero
    for sid, intercept in (("zero_pos", 0.0), ("zero_neg", -0.0)):
        _write_triple(folder, sid, replace(base.ct, subject_id=sid), base.tissue, base.vertebrae)
        write_volume(_prediction(base.tissue), folder / f"{sid}_pred.bcv")
        _rewrite(folder / f"{sid}_ct.bcv", rescale_slope=0.0, rescale_intercept=intercept)
    good += ["zvar", "wide", "zero_pos", "zero_neg"]
    # edge cases, outside the manifest: T12 and L4 on one slice, no
    # muscle (nor muscular fat) on the L3 slice, and no SAT (nor muscular
    # fat) on it
    degen = build_phantom(*SHAPE, SPACING, subject_id="degen", vertebra_slices=(10, L3, 10))

    def without_on_l3(codes):
        on_l3 = np.isin(base.tissue.codes, codes) & (np.arange(SHAPE[2]) == L3)[:, None, None]
        return replace(base.tissue, codes=np.where(on_l3, 0, base.tissue.codes))

    edges = {
        "degen": (degen.ct, degen.tissue, degen.vertebrae),
        "nomuscle_l3": (replace(base.ct, subject_id="nomuscle_l3"), without_on_l3((1, 4)), base.vertebrae),
        "nosat_l3": (replace(base.ct, subject_id="nosat_l3"), without_on_l3((2, 4)), base.vertebrae),
    }
    for sid, (ct, tissue, vertebrae) in edges.items():
        _write_triple(folder, sid, ct, tissue, vertebrae)
        write_volume(_prediction(tissue), folder / f"{sid}_pred.bcv")
    # a 2x2x3 grid, every level on slice 2, whose header is rewritten to a
    # spacing of (1e150, 1e150, 1e8) mm: the whole grid's measures are
    # finite, those of slice 2 alone are not
    _write_slab_grid(folder)

    # single faults, each beside the good files of the base phantom; a
    # 1e150 spacing is no fault: the grid checks accept it on this grid
    _write_triple(folder, "base", base.ct, base.tissue, base.vertebrae)
    write_volume(_prediction(base.tissue), folder / "base_pred.bcv")
    plane = SHAPE[0] * SHAPE[1]
    copies = {
        "unmapped_in_tissue": "tissue",
        "unmapped_out_tissue": "tissue",
        "unmapped_in_pred": "pred",
        "short_ct": "ct",
        "short_tissue": "tissue",
        "short_vertebrae": "vertebrae",
        "magic_ct": "ct",
        "noslope_ct": "ct",
        "spacing1e150_ct": "ct",
        "spacing1e150_tissue": "tissue",
        "spacing1e150_vertebrae": "vertebrae",
        "mismatch_tissue": "tissue",
        "boolspacing_ct": "ct",
        "strslope_ct": "ct",
        "unmapped_vertebrae": "vertebrae",
        "unmapped_after_tissue": "tissue",
        "slope1e36_ct": "ct",
    }
    for name, source in copies.items():
        (folder / f"{name}.bcv").write_bytes((folder / f"base_{source}.bcv").read_bytes())
    # code 9, which the map lacks, on the L3 slice (inside the counted
    # slab) and on slice 0 (outside it)
    _rewrite(folder / "unmapped_in_tissue.bcv", payload={L3 * plane + 100: 9})
    _rewrite(folder / "unmapped_out_tissue.bcv", payload={50: 9})
    _rewrite(folder / "unmapped_in_pred.bcv", payload={L3 * plane + 100: 9})
    # and on slice 28, after the counted slab; and code 9 in a vertebra file
    _rewrite(folder / "unmapped_after_tissue.bcv", payload={28 * plane + 100: 9})
    _rewrite(folder / "unmapped_vertebrae.bcv", payload={50: 9})
    _rewrite(folder / "slope1e36_ct.bcv", rescale_slope=1e36)
    for name in ("short_ct", "short_tissue", "short_vertebrae"):
        path = folder / f"{name}.bcv"
        path.write_bytes(path.read_bytes()[:-10])
    path = folder / "magic_ct.bcv"
    path.write_bytes(b"BCV2" + path.read_bytes()[4:])
    _rewrite(folder / "noslope_ct.bcv", drop=("rescale_slope",))
    for part in ("ct", "tissue", "vertebrae"):
        _rewrite(folder / f"spacing1e150_{part}.bcv", spacing_mm=[1e150, 1e150, 2.5])
    _rewrite(folder / "mismatch_tissue.bcv", spacing_mm=[1.0, 1.0, 3.0])
    _rewrite(folder / "boolspacing_ct.bcv", spacing_mm=[True, True, 2.5])
    _rewrite(folder / "strslope_ct.bcv", rescale_slope="1.0")
    for level, code in (("nol3", 2), ("nol4", 3)):
        codes = np.where(base.vertebrae.codes == code, 0, base.vertebrae.codes)
        write_volume(replace(base.vertebrae, codes=codes), folder / f"{level}_vertebrae.bcv")
    # a header that is valid JSON but not an object
    data = (folder / "base_ct.bcv").read_bytes()
    (header_len,) = struct.unpack("<Q", data[4:12])
    body = data[12 + header_len :]
    (folder / "notobject_ct.bcv").write_bytes(data[:4] + struct.pack("<Q", 2) + b"[]" + body)

    manifest = ["ct,tissue,vertebrae,subject_id"]
    manifest += [f"{s}_ct.bcv,{s}_tissue.bcv,{s}_vertebrae.bcv," for s in good]
    (folder / "manifest.csv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    # a byte order mark, as Excel's "CSV UTF-8" writes, before the header;
    # ids given, empty and blank in turn (an empty or blank id is the CT header's)
    ids = ("m_{}", "", "  ")
    marked = manifest[:1] + [
        f"{s}_ct.bcv,{s}_tissue.bcv,{s}_vertebrae.bcv,{ids[i % 3].format(s)}" for i, s in enumerate(good)
    ]
    (folder / "manifest_bom.csv").write_text("\n".join(marked) + "\n", encoding="utf-8-sig")
    faulty = manifest + [
        "base_ct.bcv,unmapped_in_tissue.bcv,base_vertebrae.bcv,f_unmapped_in",
        "base_ct.bcv,unmapped_out_tissue.bcv,base_vertebrae.bcv,f_unmapped_out",
        "base_ct.bcv,base_tissue.bcv,nol3_vertebrae.bcv,f_nol3",
        "short_ct.bcv,base_tissue.bcv,base_vertebrae.bcv,f_short",
        "magic_ct.bcv,base_tissue.bcv,base_vertebrae.bcv,f_magic",
        "noslope_ct.bcv,base_tissue.bcv,base_vertebrae.bcv,f_noslope",
        "base_ct.bcv,mismatch_tissue.bcv,base_vertebrae.bcv,f_mismatch",
        "base_tissue.bcv,base_tissue.bcv,base_vertebrae.bcv,f_kind",
    ]
    (folder / "manifest_faults.csv").write_text("\n".join(faulty) + "\n", encoding="utf-8")
    # no vertebrae column; one id given twice; one id read from two CT headers
    nocolumn = ["ct,tissue,subject_id", f"{good[0]}_ct.bcv,{good[0]}_tissue.bcv,"]
    (folder / "manifest_nocolumn.csv").write_text("\n".join(nocolumn) + "\n", encoding="utf-8")
    dup = manifest[:1] + [f"{s}_ct.bcv,{s}_tissue.bcv,{s}_vertebrae.bcv,dup" for s in good[:2]]
    (folder / "manifest_dup.csv").write_text("\n".join(dup) + "\n", encoding="utf-8")
    dup_headers = manifest[:1] + [
        f"{ct}.bcv,base_tissue.bcv,base_vertebrae.bcv," for ct in ("base_ct", "slope1e36_ct")
    ]
    (folder / "manifest_dup_headers.csv").write_text("\n".join(dup_headers) + "\n", encoding="utf-8")

    rows = ["subject_id,age_years,sex,race,height_m"]
    for i, sid in enumerate(good):
        height = "" if i == 3 else f"{1.5 + 0.04 * i:.2f}"
        rows.append(f"{sid},{30 + 7 * i},{('Female', 'Male')[i % 2]},{'ABC'[i % 3]},{height}")
    (folder / "demographics.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    # demographics a subject cannot be measured or grouped by: the age of
    # the first subject, or the height of "base"
    for name, age in (("nan_age", "nan"), ("inf_age", "inf")):
        first = rows[1].split(",")
        bad = [rows[0], ",".join([first[0], age, *first[2:]]), *rows[2:]]
        (folder / f"demographics_{name}.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
    # a row with no subject_id
    noid = [rows[0], ",".join(["", *rows[1].split(",")[1:]]), *rows[2:]]
    (folder / "demographics_noid.csv").write_text("\n".join(noid) + "\n", encoding="utf-8")
    heights = {"inf_height": "inf", "tiny_height": "1e-200", "small_height": "1e-160"}
    for name, height in heights.items():
        bad = [rows[0], f"base,40,Male,A,{height}"]
        (folder / f"demographics_{name}.csv").write_text("\n".join(bad) + "\n", encoding="utf-8")
    return good


def _runs(good: list[str]):
    """``(name, argv)`` of every run, in order; paths are relative to a run's directory."""
    def f(name):
        return f"../../in/{name}"

    def triple(sid):
        return [arg for part in ("ct", "tissue", "vertebrae") for arg in (f"--{part}", f(f"{sid}_{part}.bcv"))]

    subjects = (*good, *EDGES)
    for sid in subjects:
        for policy in POLICIES:
            yield f"measure.{sid}.{policy}", [
                "measure", *triple(sid), "--policy", policy, "--out", "out"
            ]
    for policy in POLICIES:
        for jobs in ("1", "2", "3"):
            yield f"measure.manifest.{policy}.j{jobs}", [
                "measure", "--manifest", f("manifest.csv"), "--policy", policy, "--jobs", jobs,
                "--out", "out",
            ]
    for jobs in ("1", "2", "3"):
        yield f"measure.manifest_faults.j{jobs}", [
            "measure", "--manifest", f("manifest_faults.csv"), "--jobs", jobs, "--out", "out"
        ]
        yield f"measure.manifest_bom.j{jobs}", [
            "measure", "--manifest", f("manifest_bom.csv"), "--jobs", jobs, "--out", "out"
        ]
    for name in ("nocolumn", "dup", "dup_headers"):
        yield f"measure.manifest_{name}", [
            "measure", "--manifest", f(f"manifest_{name}.csv"), "--out", "out"
        ]
    # no triple and no manifest
    yield "measure.no_inputs", ["measure", "--ct", f("base_ct.bcv"), "--out", "out"]
    yield "measure.cohort", [
        "measure", "--manifest", f("manifest.csv"), "--cohort", f("demographics.csv"), "--out", "out"
    ]
    for policy in POLICIES:
        yield f"measure.cohort.{policy}", [
            "measure", "--manifest", f("manifest.csv"), "--cohort", f("demographics.csv"),
            "--policy", policy, "--out", "out",
        ]
    for name in ("inf_height", "tiny_height", "small_height"):
        yield f"measure.cohort_{name}", [
            "measure", *triple("base"), "--cohort", f(f"demographics_{name}.csv"), "--out", "out"
        ]
    measure_faults = {
        "unmapped_in": ("base_ct", "unmapped_in_tissue", "base_vertebrae"),
        "unmapped_out": ("base_ct", "unmapped_out_tissue", "base_vertebrae"),
        "nol3": ("base_ct", "base_tissue", "nol3_vertebrae"),
        "nol4": ("base_ct", "base_tissue", "nol4_vertebrae"),
        "short_ct": ("short_ct", "base_tissue", "base_vertebrae"),
        "short_tissue": ("base_ct", "short_tissue", "base_vertebrae"),
        "short_vertebrae": ("base_ct", "base_tissue", "short_vertebrae"),
        "magic": ("magic_ct", "base_tissue", "base_vertebrae"),
        "noslope": ("noslope_ct", "base_tissue", "base_vertebrae"),
        "spacing1e150": ("spacing1e150_ct", "spacing1e150_tissue", "spacing1e150_vertebrae"),
        "mismatch": ("base_ct", "mismatch_tissue", "base_vertebrae"),
        "kind": ("base_tissue", "base_ct", "base_vertebrae"),
        "boolspacing": ("boolspacing_ct", "base_tissue", "base_vertebrae"),
        "strslope": ("strslope_ct", "base_tissue", "base_vertebrae"),
        "unmapped_vertebrae": ("base_ct", "base_tissue", "unmapped_vertebrae"),
        "unmapped_after": ("base_ct", "unmapped_after_tissue", "base_vertebrae"),
        "slope1e36": ("slope1e36_ct", "base_tissue", "base_vertebrae"),
        "notobject": ("notobject_ct", "base_tissue", "base_vertebrae"),
        # two faults: the cut-short CT's header is refused before a mask code is met
        "short_ct_unmapped_in": ("short_ct", "unmapped_in_tissue", "base_vertebrae"),
    }
    for fault, (ct, tissue, vertebrae) in measure_faults.items():
        yield f"measure.fault.{fault}", [
            "measure", "--ct", f(f"{ct}.bcv"), "--tissue", f(f"{tissue}.bcv"),
            "--vertebrae", f(f"{vertebrae}.bcv"), "--out", "out",
        ]

    variants = {
        "plain": [],
        "regions_all": ["--regions", "all"],
        "vertebrae": ["--vertebrae", None],
        "vertebrae_regions": ["--vertebrae", None, "--regions", "l3,all"],
    }
    for sid in subjects:
        for policy in POLICIES:
            for variant, extra in variants.items():
                extra = [f(f"{sid}_vertebrae.bcv") if a is None else a for a in extra]
                yield f"evaluate.{sid}.{policy}.{variant}", [
                    "evaluate", "--gt", f(f"{sid}_tissue.bcv"), "--pred", f(f"{sid}_pred.bcv"),
                    "--ct", f(f"{sid}_ct.bcv"), *extra, "--policy", policy, "--out", "out",
                ]
    yield "evaluate.regions_bogus", [
        "evaluate", "--gt", f("base_tissue.bcv"), "--pred", f("base_pred.bcv"), "--ct", f("base_ct.bcv"),
        "--regions", "bogus", "--out", "out",
    ]
    evaluate_faults = {
        "unmapped_in_pred": ("base_tissue", "unmapped_in_pred", "base_ct", "base_vertebrae", None),
        "unmapped_out_gt": ("unmapped_out_tissue", "base_pred", "base_ct", "base_vertebrae", None),
        "nol3": ("base_tissue", "base_pred", "base_ct", "nol3_vertebrae", None),
        "nol3_regions_l3": ("base_tissue", "base_pred", "base_ct", "nol3_vertebrae", "l3"),
        "nol4": ("base_tissue", "base_pred", "base_ct", "nol4_vertebrae", None),
        "nol4_regions_all": ("base_tissue", "base_pred", "base_ct", "nol4_vertebrae", "all"),
        "regions_without_vertebrae": ("base_tissue", "base_pred", "base_ct", None, "t12l4"),
        "short_ct": ("base_tissue", "base_pred", "short_ct", "base_vertebrae", None),
        "short_gt": ("short_tissue", "base_pred", "base_ct", "base_vertebrae", None),
        "magic_ct": ("base_tissue", "base_pred", "magic_ct", "base_vertebrae", None),
        "noslope": ("base_tissue", "base_pred", "noslope_ct", "base_vertebrae", None),
        "noslope_plain": ("base_tissue", "base_pred", "noslope_ct", None, None),
        "spacing1e150": (
            "spacing1e150_tissue", "spacing1e150_tissue", "spacing1e150_ct", "spacing1e150_vertebrae", None
        ),
        "mismatch": ("base_tissue", "mismatch_tissue", "base_ct", "base_vertebrae", None),
        "kind": ("base_tissue", "base_pred", "base_tissue", "base_vertebrae", None),
        "boolspacing": ("base_tissue", "base_pred", "boolspacing_ct", "base_vertebrae", None),
        "strslope": ("base_tissue", "base_pred", "strslope_ct", "base_vertebrae", None),
        "unmapped_vertebrae": ("base_tissue", "base_pred", "base_ct", "unmapped_vertebrae", None),
        # two faults: a missing requested level is refused before the masks are read
        "unmapped_after_gt_nol4": (
            "unmapped_after_tissue", "base_pred", "base_ct", "nol4_vertebrae", "t12l4"
        ),
        "slope1e36": ("base_tissue", "base_pred", "slope1e36_ct", "base_vertebrae", None),
        # two faults: the cut-short CT's header is refused before a mask code is met
        "short_ct_unmapped_in_pred": (
            "base_tissue", "unmapped_in_pred", "short_ct", "base_vertebrae", None
        ),
    }
    for fault, (gt, pred, ct, vertebrae, regions) in evaluate_faults.items():
        extra = ["--vertebrae", f(f"{vertebrae}.bcv")] if vertebrae else []
        extra += ["--regions", regions] if regions else []
        yield f"evaluate.fault.{fault}", [
            "evaluate", "--gt", f(f"{gt}.bcv"), "--pred", f(f"{pred}.bcv"), "--ct", f(f"{ct}.bcv"),
            *extra, "--out", "out",
        ]

    for sid in subjects:
        for level in ("T12", "L3", "L4"):
            yield f"select-slice.{sid}.{level}", [
                "select-slice", "--vertebrae", f(f"{sid}_vertebrae.bcv"), "--level", level
            ]
    for fault, vertebrae, level in (
        ("nol3", "nol3_vertebrae", "L3"),
        ("nol4", "nol4_vertebrae", "L4"),
        ("short", "short_vertebrae", "L3"),
        ("kind", "base_ct", "L3"),
        ("spacing1e150", "spacing1e150_vertebrae", "L3"),
        ("unmapped", "unmapped_vertebrae", "L3"),
    ):
        yield f"select-slice.fault.{fault}", [
            "select-slice", "--vertebrae", f(f"{vertebrae}.bcv"), "--level", level
        ]

    for mode in ("sat-skin", "mf-filter"):
        for sid in subjects:
            yield f"postprocess.{mode}.{sid}", [
                "postprocess", mode, "--ct", f(f"{sid}_ct.bcv"), "--mask", f(f"{sid}_tissue.bcv"),
                "--out", "out.bcv",
            ]
        for fault, ct, mask in (
            ("short_ct", "short_ct", "base_tissue"),
            ("short_mask", "base_ct", "short_tissue"),
            ("magic", "magic_ct", "base_tissue"),
            ("noslope", "noslope_ct", "base_tissue"),
            ("spacing1e150", "spacing1e150_ct", "spacing1e150_tissue"),
            ("unmapped_mask", "base_ct", "unmapped_out_tissue"),
            ("mismatch", "base_ct", "mismatch_tissue"),
            ("kind", "base_tissue", "base_tissue"),
            ("boolspacing", "boolspacing_ct", "base_tissue"),
            ("strslope", "strslope_ct", "base_tissue"),
            ("slope1e36", "slope1e36_ct", "base_tissue"),
        ):
            yield f"postprocess.{mode}.fault.{fault}", [
                "postprocess", mode, "--ct", f(f"{ct}.bcv"), "--mask", f(f"{mask}.bcv"),
                "--out", "out.bcv",
            ]

    results = "../measure.cohort/out"
    cohort = ["cohort", "--results", results, "--demographics"]
    yield "cohort.all", [*cohort, f("demographics.csv"), "--out", "out"]
    yield "cohort.min1", [*cohort, f("demographics.csv"), "--min-group", "1", "--out", "out"]
    for name in ("nan_age", "inf_age"):
        yield f"cohort.{name}", [
            *cohort, f(f"demographics_{name}.csv"), "--group-by", "age_bin", "--min-group", "1",
            "--out", "out",
        ]
    yield "cohort.noid", [*cohort, f("demographics_noid.csv"), "--out", "out"]
    yield "cohort.group_by_bogus", [*cohort, f("demographics.csv"), "--group-by", "bogus", "--out", "out"]
    yield "cohort.no_results", [
        "cohort", "--results", "../../in", "--demographics", f("demographics.csv"), "--out", "out"
    ]
    for policy in POLICIES:
        for min_group in ("1", "2", "20"):
            yield f"cohort.{policy}.min{min_group}", [
                "cohort", "--results", f"../measure.cohort.{policy}/out", "--demographics",
                f("demographics.csv"), "--min-group", min_group, "--out", "out",
            ]


def _run(folder: Path, argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` from ``folder``; its record."""
    folder.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
            stdout
        ), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback a user would see
                code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(folder.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            files[path.relative_to(folder).as_posix()] = digest
    return {
        "argv": argv,
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": files,
    }


def generate(root: Path) -> dict:
    """Make the inputs under ``root`` and run every command; the corpus."""
    runs = {}
    for name, argv in _runs(make_inputs(root / "in")):
        assert name not in runs, name
        runs[name] = _run(root / "runs" / name, argv)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runs": runs,
    }


def dumps(corpus: dict) -> str:
    return json.dumps(corpus, indent=1, sort_keys=True) + "\n"


def differences(old: dict, new: dict) -> list[str]:
    """One line per entry added, removed or changed from ``old`` to ``new``,
    sorted by entry name, then per changed version."""
    runs, was = new["runs"], old["runs"]
    lines = [
        f"{'added' if name not in was else 'removed' if name not in runs else 'changed'}: {name}"
        for name in sorted(runs.keys() | was.keys())
        if runs.get(name) != was.get(name)
    ]
    return lines + [f"changed: {key} {old[key]} -> {new[key]}" for key in ("python", "numpy")
                    if old[key] != new[key]]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(Path(tmp))
    if sys.argv[1:] == ["--check"]:
        lines = differences(json.loads(CORPUS.read_text(encoding="utf-8")), corpus)
        print("\n".join(lines) if lines else "the corpus is unchanged")
        sys.exit(bool(lines))
    CORPUS.write_text(dumps(corpus), encoding="utf-8")
