"""Slice-wise mask post-processing, on numpy alone.

``dilate_sat_to_skin`` grows the SAT label into the skin rim: one pass of
a 5x5 square dilation per axial slice, adding only pixels that are still
background and brighter than -800 HU (the body/air boundary). Existing
labels are never overwritten. The square is separable (van Herk 1992;
Gil & Werman 1993), so the dilation is an OR of shifted views: by ±1 and
±2 rows, then by ±1 and ±2 columns.

``muscular_fat_candidates`` marks fat inside a region of interest: pixels
with HU in [-220, -50], kept only when their 8-connected in-plane
component has at least 7 pixels (more than six).

Every threshold is a closed HU interval ``[lo, hi]``. The skin test
"above -800" is ``[-800 + 2^-14, inf]``, from the float32 after -800: a
float32 HU lies in it exactly when it is above -800, and NaN lies in
neither. Neither kernel converts a raw CT to HU. The raw-to-HU rescale
is a float32 multiply and a float32 add, each rounding monotone, so the
raw int16 values whose HU lies in an interval form one interval too,
found from the HU of all 65,536 int16 values once per rescale and
threshold (a command runs on one CT, a chunk of slices at a time). An
HU volume keeps the bounds as they are. Either way each slice costs the
same two in-place comparisons of its stored values, into planes made
once per call.

``postprocess`` streams its files: ``dilate_sat_to_skin`` runs on each
chunk of slices, and ``muscular_fat_slabs`` takes the chunks of one
volume in turn, labelling and putting out each chunk once its slices are
scanned. The stream is kept, rather than a call per chunk, so that its
candidate planes are made once per volume. Components are labelled by
row runs (He, Chao & Suzuki 2008), all the slices of a chunk at once. A
run ends where the sorted candidate offsets skip a pixel or start a row.
Laid out in rows one pixel wider than the slice, with an empty row
between slices, the runs of the next row that a run touches
(8-connected) are one contiguous range of the sorted runs, found by two
``searchsorted`` calls. Components are joined by hooking each larger
root onto the smaller one and shortcutting by pointer jumping until
nothing changes (Shiloach & Vishkin 1982; the union-find labelling of
Wu, Otoo & Suzuki 2009), and their sizes are a ``bincount`` of the roots
weighted by run length.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .model import (
    BACKGROUND,
    MUSCULAR_FAT,
    SAT,
    LabelVolume,
    UnitState,
    VoxelVolume,
    require_same_geometry,
    rescale_to_hu,
)

SKIN_HU_THRESHOLD = -800.0
# "HU above -800" as a closed interval: every HU is float32, and the
# float32 after -800 is -800 + 2^-14, the float32 spacing in [512, 1024)
_SKIN_HU_RANGE = (SKIN_HU_THRESHOLD + 2.0**-14, float("inf"))
SAT_DILATION_SIZE = 5

MF_HU_RANGE = (-220.0, -50.0)
MF_MIN_PIXELS = 7


def _dilate_square(plane: np.ndarray, radius: int, rows: np.ndarray, grown: np.ndarray) -> None:
    """Set ``grown`` to the dilation of the 2-D boolean ``plane`` by a
    (2*radius+1)-wide square, using ``rows`` (both of its shape)."""
    np.copyto(rows, plane)
    for d in range(1, radius + 1):
        rows[d:] |= plane[:-d]
        rows[:-d] |= plane[d:]
    np.copyto(grown, rows)
    for d in range(1, radius + 1):
        grown[:, d:] |= rows[:, :-d]
        grown[:, :-d] |= rows[:, d:]


def _within(values: np.ndarray, lo, hi, out: np.ndarray, scratch: np.ndarray) -> None:
    """Set ``out`` to ``lo <= values <= hi``, using ``scratch`` (both boolean, of its shape)."""
    np.greater_equal(values, lo, out=out)
    out &= np.less_equal(values, hi, out=scratch)


@lru_cache(maxsize=16)
def _raw_interval(slope: float, intercept: float, lo: float, hi: float) -> tuple[int, int]:
    """The inclusive interval of raw int16 values whose HU lies in ``[lo, hi]``.

    The HU (``rescale_to_hu``) of every int16 value is compared; the
    passing values must form one run, else ValueError. No value passing
    gives an empty interval (1, 0). The interval is kept for each rescale
    and threshold.
    """
    raw = np.arange(-(1 << 15), 1 << 15, dtype=np.int16)
    hu = rescale_to_hu(raw, slope, intercept)
    ok = hu >= lo
    ok &= hu <= hi
    passing = np.flatnonzero(ok)
    if not passing.size:
        return 1, 0
    first, last = int(raw[passing[0]]), int(raw[passing[-1]])
    if last - first + 1 != passing.size:
        raise ValueError(
            f"the raw values whose HU passes the threshold are not one interval "
            f"(rescale slope {slope}, intercept {intercept})"
        )
    return first, last


def _stored_interval(ct: VoxelVolume, lo: float, hi: float) -> tuple:
    """The closed interval of ``ct``'s stored values whose HU lies in ``[lo, hi]``."""
    if ct.unit_state is UnitState.HU:
        return lo, hi
    return _raw_interval(ct.rescale_slope, ct.rescale_intercept, lo, hi)


def _runs(offsets: np.ndarray, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """The row runs of sorted flat ``offsets`` in rows ``nx`` wide: each
    run's first offset and its length."""
    # a run ends where the next offset is not the next pixel or starts a
    # row; one int64 array serves both tests
    step = np.diff(offsets)
    ends = step != 1
    ends |= np.remainder(offsets[1:], nx, out=step) == 0
    starts = np.concatenate(([0], np.flatnonzero(ends) + 1))
    return offsets[starts], np.diff(starts, append=offsets.size)


def _kept_runs(first: np.ndarray, length: np.ndarray, width: int, min_pixels: int) -> np.ndarray:
    """Which row runs lie in an 8-connected component of at least ``min_pixels``.

    ``first`` holds the runs' sorted first offsets in a grid of rows
    ``width`` wide whose last column is empty, and with an empty row
    between slices, so that no run touches one of another slice.
    """
    last = first + length - 1
    # run i touches the runs lo..hi-1 of the next row: those that end at or
    # after the column before its first and start at or before the column
    # after its last; the empty column keeps the range inside that row
    lo = np.searchsorted(last, first + (width - 1))
    hi = np.searchsorted(first, last + (width + 1), side="right")
    count = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(first.size), count)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(count) - count), count)
    # every pointer leads to a smaller index, and a root points to itself
    parent = np.arange(first.size)
    while True:
        ra, rb = parent[a], parent[b]
        if np.array_equal(ra, rb):
            break
        # hook: each larger root onto the smallest root it meets
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        # shortcut: jump pointers until every one leads to a root
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return np.bincount(parent, weights=length)[parent] >= min_pixels


def _label(slices: list[tuple], ny: int, nx: int, min_pixels: int) -> list[tuple]:
    """The slices ``(k, first, length)``, each holding only the runs of
    its components of at least ``min_pixels``."""
    if not slices:
        return slices
    # row y of the j-th slice starts at (j * (ny + 1) + y) * (nx + 1): an
    # empty column ends each row, and an empty row each slice
    stride = (ny + 1) * (nx + 1)
    first = np.concatenate([f + f // nx + j * stride for j, (_, f, _) in enumerate(slices)])
    kept = _kept_runs(first, np.concatenate([n for _, _, n in slices]), nx + 1, min_pixels)
    ends = np.cumsum([f.size for _, f, _ in slices])
    return [(k, f[keep], n[keep]) for (k, f, n), keep in zip(slices, np.split(kept, ends[:-1]))]


def _mf_volume(geometry, subject_id, slices: list[tuple]) -> LabelVolume:
    """The muscular-fat mask on ``geometry`` whose pixels are the runs of
    ``slices``, given as ``(k, first, length)``."""
    nx, ny, nz = geometry.dims
    out = np.zeros((nz, ny, nx), dtype=np.uint8)
    # half the bytes a pixel where a plane's offsets fit in int32
    offset = np.int32 if nx * ny <= np.iinfo(np.int32).max else np.int64
    for k, first, length in slices:
        if first.size:
            # each run's pixels: its first offset plus 0..length-1
            shift = (first - (np.cumsum(length) - length)).astype(offset)
            pixels = np.arange(int(length.sum()), dtype=offset)
            pixels += np.repeat(shift, length)
            out[k].reshape(-1)[pixels] = 1
    return LabelVolume.on_grid(
        out, geometry, label_map={0: BACKGROUND, 1: MUSCULAR_FAT}, subject_id=subject_id
    )


def dilate_sat_to_skin(mask: LabelVolume, ct: VoxelVolume) -> LabelVolume:
    """Grow SAT into adjacent unlabeled skin pixels, slice by slice.

    A pixel is added iff it lies in the 5x5 dilation of the slice's SAT
    mask, is currently background, and has HU above -800. The output SAT
    is a superset of the input SAT; no other label changes. ``ct`` is raw
    or HU; a raw CT is compared in raw values.
    """
    require_same_geometry(mask, ct)
    sat_codes = mask.codes_for(SAT)
    skin = _stored_interval(ct, *_SKIN_HU_RANGE)
    out = mask.codes.copy()
    # the planes of a slice, made once: sat, rows, add, passes and scratch
    sat, rows, add, passes, scratch = np.empty((5, *mask.codes.shape[1:]), dtype=bool)
    for k in range(mask.nz):
        np.equal(mask.codes[k], sat_codes[0], out=sat)
        for code in sat_codes[1:]:
            sat |= np.equal(mask.codes[k], code, out=scratch)
        if not sat.any():
            continue
        _dilate_square(sat, SAT_DILATION_SIZE // 2, rows, add)
        add &= np.equal(mask.codes[k], 0, out=scratch)
        _within(ct.values[k], *skin, passes, scratch)
        add &= passes
        np.copyto(out[k], sat_codes[0], where=add)
    # a mapped code is written only over background: every code stays mapped
    return LabelVolume.on_grid(out, mask.geometry, label_map=mask.label_map, subject_id=mask.subject_id)


def muscular_fat_slabs(
    pieces: Iterable[tuple[VoxelVolume, LabelVolume]],
    hu_range: tuple[float, float] = MF_HU_RANGE,
    min_pixels: int = MF_MIN_PIXELS,
) -> Iterator[LabelVolume]:
    """``muscular_fat_candidates`` of one CT and ROI given as pieces of
    whole slices: yields the output of each ``(ct, roi_mask)`` piece, in order.

    A component never joins along z, so each piece is labelled alone and
    put out before the next is taken; no piece is kept here meanwhile.
    """
    candidates = scratch = None
    for ct, roi_mask in pieces:
        require_same_geometry(ct, roi_mask)
        in_range = _stored_interval(ct, *hu_range)
        nz, ny, nx = ct.values.shape
        if candidates is None:
            candidates, scratch = np.empty((2, ny, nx), dtype=bool)
        slices = []
        for k in range(nz):
            _within(ct.values[k], *in_range, candidates, scratch)
            candidates &= np.not_equal(roi_mask.codes[k], 0, out=scratch)
            offsets = np.flatnonzero(candidates)
            if offsets.size:
                slices.append((k, *_runs(offsets, nx)))
        geometry, subject_id = ct.geometry, roi_mask.subject_id
        del ct, roi_mask  # nothing of a piece stays in this frame while the next is read
        yield _mf_volume(geometry, subject_id, _label(slices, ny, nx, min_pixels))


def muscular_fat_candidates(
    ct: VoxelVolume,
    roi_mask: LabelVolume,
    hu_range: tuple[float, float] = MF_HU_RANGE,
    min_pixels: int = MF_MIN_PIXELS,
) -> LabelVolume:
    """Binary mask of muscular-fat candidates inside the ROI.

    Per axial slice: threshold HU to ``hu_range`` (inclusive) within the
    nonzero voxels of ``roi_mask``, label 8-connected components, and
    retain components of at least ``min_pixels`` pixels. ``ct`` is raw or
    HU; a raw CT is compared in raw values.
    """
    [out] = muscular_fat_slabs([(ct, roi_mask)], hu_range, min_pixels)
    return out
