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
threshold (a command runs a kernel once per chunk of slices, on one
CT). An HU volume keeps the bounds as they are. Either way each slice
costs the same two in-place comparisons of its stored values.

Components are labelled in blocks of whole slices, each holding about
2^14 candidates at their sorted flat offsets within the block. The
8-neighbour edges come from a ``searchsorted`` for the four forward
neighbours, with row and column bounds that keep every edge inside its
slice. Components are joined by hooking each larger root onto the
smaller one and shortcutting by pointer jumping until nothing changes
(Shiloach & Vishkin 1982; the union-find labelling of Wu, Otoo & Suzuki
2009), and their sizes are a ``bincount`` of the roots.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

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
    select_codes,
)

SKIN_HU_THRESHOLD = -800.0
# "HU above -800" as a closed interval: every HU is float32, and the
# float32 after -800 is -800 + 2^-14, the float32 spacing in [512, 1024)
_SKIN_HU_RANGE = (SKIN_HU_THRESHOLD + 2.0**-14, float("inf"))
SAT_DILATION_SIZE = 5

MF_HU_RANGE = (-220.0, -50.0)
MF_MIN_PIXELS = 7

# candidates labelled at once: a block is flushed once it holds this many
_BLOCK_CANDIDATES = 1 << 14


def _dilate_square(plane: np.ndarray, radius: int) -> np.ndarray:
    """Dilation of a 2-D boolean plane by a (2*radius+1)-wide square."""
    rows = plane.copy()
    for d in range(1, radius + 1):
        rows[d:] |= plane[:-d]
        rows[:-d] |= plane[d:]
    grown = rows.copy()
    for d in range(1, radius + 1):
        grown[:, d:] |= rows[:, :-d]
        grown[:, :-d] |= rows[:, d:]
    return grown


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


def _kept(offsets: np.ndarray, ny: int, nx: int, min_pixels: int) -> np.ndarray:
    """Which candidates lie in an 8-connected in-plane component of at
    least ``min_pixels``, given their sorted int32 flat offsets in whole
    slices."""
    n = offsets.size
    x = offsets % nx
    right, left, below = x < nx - 1, x > 0, offsets // nx % ny < ny - 1
    # edges (a, b) to the forward neighbours (0,+1), (+1,-1), (+1,0) and
    # (+1,+1), each only where it lies inside the candidate's slice
    a, b = [], []
    for ok, step in ((right, 1), (below & left, nx - 1), (below, nx), (below & right, nx + 1)):
        src = np.flatnonzero(ok)
        target = offsets[src] + step
        dst = np.minimum(np.searchsorted(offsets, target), n - 1)
        hit = offsets[dst] == target
        a.append(src[hit].astype(np.int32))
        b.append(dst[hit].astype(np.int32))
    a, b = np.concatenate(a), np.concatenate(b)
    # every pointer leads to a smaller index, and a root points to itself
    parent = np.arange(n, dtype=np.int32)
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
    return np.bincount(parent)[parent] >= min_pixels


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
    passes = np.empty(mask.codes.shape[1:], dtype=bool)
    scratch = np.empty_like(passes)
    for k in range(mask.nz):
        sat = select_codes(mask.codes[k], sat_codes)
        if not sat.any():
            continue
        add = _dilate_square(sat, SAT_DILATION_SIZE // 2)
        add &= np.equal(mask.codes[k], 0, out=scratch)
        _within(ct.values[k], *skin, passes, scratch)
        add &= passes
        np.copyto(out[k], sat_codes[0], where=add)
    return replace(mask, codes=out)


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
    require_same_geometry(ct, roi_mask)
    in_range = _stored_interval(ct, *hu_range)
    nz, ny, nx = ct.values.shape
    plane = ny * nx
    out = np.zeros(ct.values.shape, dtype=np.uint8)
    out_flat = out.reshape(-1)
    # a block's offsets are int32: it spans at most this many slices
    max_span = max(1, np.iinfo(np.int32).max // plane)
    candidates = np.empty((ny, nx), dtype=bool)
    scratch = np.empty_like(candidates)
    start, pieces, count = 0, [], 0
    for k in range(nz):
        _within(ct.values[k], *in_range, candidates, scratch)
        candidates &= np.not_equal(roi_mask.codes[k], 0, out=scratch)
        flat = np.flatnonzero(candidates)
        if flat.size:
            pieces.append((flat + (k - start) * plane).astype(np.int32))
            count += flat.size
        if count >= _BLOCK_CANDIDATES or k + 1 - start == max_span or k + 1 == nz:
            if pieces:
                offsets = np.concatenate(pieces)
                block = out_flat[start * plane : (k + 1) * plane]
                block[offsets[_kept(offsets, ny, nx, min_pixels)]] = 1
            start, pieces, count = k + 1, [], 0
    return LabelVolume(
        codes=out,
        label_map={0: BACKGROUND, 1: MUSCULAR_FAT},
        spacing_mm=ct.spacing_mm,
        z_positions_mm=ct.z_positions_mm,
        subject_id=roi_mask.subject_id,
    )
