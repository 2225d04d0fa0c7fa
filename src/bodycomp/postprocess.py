"""Slice-wise mask post-processing.

``dilate_sat_to_skin`` grows the SAT label into the skin rim: one pass of
a 5x5 square dilation per axial slice, adding only pixels that are still
background and brighter than -800 HU (the body/air boundary). Existing
labels are never overwritten. The square is separable (van Herk 1992;
Gil & Werman 1993), so the dilation is an OR of shifted views: by ±1 and
±2 rows, then by ±1 and ±2 columns.

``muscular_fat_candidates`` marks fat inside a region of interest: pixels
with HU in [-220, -50], kept only when their 8-connected in-plane
component has at least 7 pixels (more than six). Each slice is labelled
on a compacted grid of its candidates: their rows and columns in order,
with every run of empty rows or columns between them shrunk to one, which
keeps 8-adjacency exactly. Candidates are a small share of a slice, so the
grid is far smaller than the slice, and component sizes are counted over
the candidates alone. It is the one function here that needs scipy, and
imports it when called.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .model import (
    BACKGROUND,
    MUSCULAR_FAT,
    SAT,
    LabelVolume,
    VoxelVolume,
    require_same_geometry,
    select_codes,
)

SKIN_HU_THRESHOLD = -800.0
SAT_DILATION_SIZE = 5

MF_HU_RANGE = (-220.0, -50.0)
MF_MIN_PIXELS = 7

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


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


def _compact(coords: np.ndarray) -> np.ndarray:
    """Renumber coordinates along one axis: occupied ones keep their order,
    and each run of empty ones between them shrinks to a single one.

    Two pixels are 8-adjacent iff their rows and their columns each differ
    by at most one, which this renumbering preserves.
    """
    used, inverse = np.unique(coords, return_inverse=True)
    return np.cumsum(np.minimum(np.diff(used, prepend=used[0]), 2))[inverse]


def dilate_sat_to_skin(mask: LabelVolume, ct: VoxelVolume) -> LabelVolume:
    """Grow SAT into adjacent unlabeled skin pixels, slice by slice.

    A pixel is added iff it lies in the 5x5 dilation of the slice's SAT
    mask, is currently background, and has HU above -800. The output SAT
    is a superset of the input SAT; no other label changes. ``ct`` is raw
    or HU; only the slices with SAT are converted.
    """
    require_same_geometry(mask, ct)
    sat_codes = mask.codes_for(SAT)
    out = mask.codes.copy()
    for k in range(mask.nz):
        sat = select_codes(mask.codes[k], sat_codes)
        if not sat.any():
            continue
        add = _dilate_square(sat, SAT_DILATION_SIZE // 2)
        add &= mask.codes[k] == 0
        add &= ct.hu_at(k) > SKIN_HU_THRESHOLD
        out[k][add] = sat_codes[0]
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
    HU; it is converted one slice at a time.
    """
    from scipy import ndimage  # only this kernel needs scipy

    require_same_geometry(ct, roi_mask)
    lo, hi = hu_range
    out = np.zeros(ct.values.shape, dtype=np.uint8)
    out_planes = out.reshape(ct.nz, -1)
    nx = ct.values.shape[2]
    candidates = np.empty(ct.values.shape[1:], dtype=bool)
    scratch = np.empty_like(candidates)
    for k in range(ct.nz):
        hu = ct.hu_at(k)
        np.greater_equal(hu, lo, out=candidates)
        candidates &= np.less_equal(hu, hi, out=scratch)
        candidates &= np.not_equal(roi_mask.codes[k], 0, out=scratch)
        flat = np.flatnonzero(candidates)
        if not flat.size:
            continue
        ys, xs = np.divmod(flat, nx)
        ys, xs = _compact(ys), _compact(xs)
        grid = np.zeros((ys[-1] + 1, xs.max() + 1), dtype=bool)
        grid[ys, xs] = True
        labeled, _ = ndimage.label(grid, structure=_EIGHT_CONNECTED)
        ids = labeled[ys, xs]
        out_planes[k, flat[np.bincount(ids)[ids] >= min_pixels]] = 1
    return LabelVolume(
        codes=out,
        label_map={0: BACKGROUND, 1: MUSCULAR_FAT},
        spacing_mm=ct.spacing_mm,
        z_positions_mm=ct.z_positions_mm,
        subject_id=roi_mask.subject_id,
    )
