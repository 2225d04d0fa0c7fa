"""Synthetic abdomen phantoms with analytically known tissue geometry.

The phantom stacks, per slice: an elliptical body on an air background, a
muscle ring, an SAT ring outside it, a VAT disk at the center, and a few
muscular-fat streaks inside the muscle ring. Vertebra markers are small
squares whose per-slice size peaks at configurable slice indices so the
region-selection rules have unambiguous answers. Every tissue has a
constant HU value, making voxel-count ground truth exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    BACKGROUND,
    LabelVolume,
    VoxelVolume,
    default_tissue_label_map,
    vertebra_label,
)

TISSUE_HU = {
    "air": -1000.0,
    "body": 20.0,
    "skeletal_muscle": 48.0,
    "sat": -105.0,
    "vat": -92.0,
    "muscular_fat": -75.0,
    "bone": 300.0,
}

VERTEBRA_CODES = {1: vertebra_label("T12"), 2: vertebra_label("L3"), 3: vertebra_label("L4")}


def _raw_counts(slope: float, intercept: float) -> dict[str, int]:
    """The raw int16 count of each ``TISSUE_HU`` value under the rescale.

    Tissues are rounded from float32 HU, as a float32 slice would be, and
    bone from float64. ValueError, naming the slope and the intercept, for
    a zero or non-finite slope, a non-finite intercept or a count that
    int16 cannot hold.
    """
    rescale = f"rescale slope {slope!r}, intercept {intercept!r}"
    if not (math.isfinite(slope) and math.isfinite(intercept)) or slope == 0:
        raise ValueError(f"{rescale}: need a finite nonzero slope and a finite intercept")
    with np.errstate(over="ignore"):
        raw = {name: np.round((np.float32(hu) - intercept) / slope) for name, hu in TISSUE_HU.items()}
        raw["bone"] = np.round((TISSUE_HU["bone"] - intercept) / slope)
    outside = [name for name, value in raw.items() if not -(1 << 15) <= value < 1 << 15]
    if outside:
        raise ValueError(f"{rescale}: the raw value of {', '.join(outside)} is outside int16")
    return {name: int(value) for name, value in raw.items()}


@dataclass(frozen=True)
class Phantom:
    ct: VoxelVolume  # raw counts (unit_state=Raw)
    tissue: LabelVolume
    vertebrae: LabelVolume
    l3_slice: int
    t12_slice: int
    l4_slice: int


def build_phantom(
    nx: int = 64,
    ny: int = 64,
    nz: int = 24,
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 5.0),
    rescale_slope: float = 1.0,
    rescale_intercept: float = -1024.0,
    subject_id: str = "phantom",
    vertebra_slices: tuple[int, int, int] | None = None,
) -> Phantom:
    """Build a deterministic phantom.

    ``vertebra_slices`` gives the (T12, L3, L4) peak slices; the default
    places T12 near the top and L4 near the bottom with L3 between them.
    Raw counts encode HU through the given rescale parameters; the
    defaults (slope 1) reproduce the tissue HU values exactly, while a
    non-integral slope quantizes them to the nearest raw count. Every
    level keeps its whole marker profile: an image too small to place a
    marker clear of the others raises ValueError naming its level.
    """
    if vertebra_slices is None:
        t12 = max(0, int(round(nz * 0.80)))
        l3 = int(round(nz * 0.45))
        l4 = max(0, int(round(nz * 0.20)))
    else:
        t12, l3, l4 = vertebra_slices
    for z in (t12, l3, l4):
        if not 0 <= z < nz:
            raise ValueError(f"vertebra slice {z} outside [0, {nz})")
    counts = _raw_counts(rescale_slope, rescale_intercept)

    yy, xx = np.mgrid[0:ny, 0:nx]
    cx, cy = (nx - 1) / 2.0, (ny - 1) / 2.0
    r = np.hypot(xx - cx, yy - cy)
    scale = min(nx, ny) / 2.0

    body = r <= scale * 0.94
    sat_ring = body & (r > scale * 0.74)
    muscle_ring = (r <= scale * 0.70) & (r > scale * 0.50)
    vat_disk = r <= scale * 0.30

    # HU encoded through the rescale parameters, per slice: the 3-D volume
    # is a stack of copies
    raw_slice = np.full((ny, nx), counts["air"], dtype=np.int16)
    raw_slice[body] = counts["body"]
    raw_slice[sat_ring] = counts["sat"]
    raw_slice[muscle_ring] = counts["skeletal_muscle"]
    raw_slice[vat_disk] = counts["vat"]

    labels_slice = np.zeros((ny, nx), dtype=np.uint8)
    labels_slice[sat_ring] = 2
    labels_slice[muscle_ring] = 1
    labels_slice[vat_disk] = 3

    # muscular-fat streaks: short horizontal runs inside the muscle ring
    mf = np.zeros((ny, nx), dtype=bool)
    row = int(cy)
    inner = int(cx - scale * 0.68)
    mf[row, inner : inner + 3] = True
    mf[row + 1, inner : inner + 2] = True
    mf &= muscle_ring
    labels_slice[mf] = 4
    raw_slice[mf] = counts["muscular_fat"]

    raw = np.broadcast_to(raw_slice, (nz, ny, nx)).copy()
    tissue_codes = np.broadcast_to(labels_slice, (nz, ny, nx)).copy()

    # vertebra markers: squares close to the posterior body wall whose
    # side length peaks at the designated slice. A marker that would share
    # a pixel with an earlier level's moves by the widest side (6 px):
    # beside it, right or left, where that fits in the image, else 6 px up
    # or down, so every level keeps its whole profile; with no such place
    # the phantom cannot be built
    vert_codes = np.zeros((nz, ny, nx), dtype=np.uint8)
    marker_y, marker_x = int(cy + scale * 0.40), int(cx)

    def square(k: int, peak: int, at: tuple[int, int]) -> tuple[int, slice, slice]:
        half = (3, 2, 1)[abs(k - peak)]
        y, x = marker_y + at[0], marker_x + at[1]
        ys = slice(max(0, y - half), min(ny, y + half))
        return k, ys, slice(max(0, x - half), min(nx, x + half))

    def free(at: tuple[int, int], peak: int, marked: range) -> bool:
        fits = all(
            shift == 0 or 0 <= centre + shift - 3 <= size - 6
            for shift, centre, size in zip(at, (marker_y, marker_x), (ny, nx))
        )
        return fits and not any(vert_codes[square(k, peak, at)].any() for k in marked)

    places = [(dy, dx) for dy in (0, -6, 6) for dx in (0, 6, -6, 12, -12)]
    for code, peak in ((1, t12), (2, l3), (3, l4)):
        marked = range(max(0, peak - 2), min(nz, peak + 3))
        at = next((place for place in places if free(place, peak, marked)), None)
        if at is None:
            raise ValueError(
                f"no room for the {VERTEBRA_CODES[code]} marker on a {nx}x{ny} image "
                f"beside the markers already drawn"
            )
        for k in marked:
            voxels = square(k, peak, at)
            vert_codes[voxels] = code
            raw[voxels] = counts["bone"]
            tissue_codes[voxels] = 0

    ct = VoxelVolume(
        values=raw,
        spacing_mm=spacing_mm,
        rescale_slope=rescale_slope,
        rescale_intercept=rescale_intercept,
        subject_id=subject_id,
    )
    tissue = LabelVolume(
        codes=tissue_codes,
        label_map=default_tissue_label_map(),
        spacing_mm=spacing_mm,
        subject_id=subject_id,
    )
    vertebrae = LabelVolume(
        codes=vert_codes,
        label_map={0: BACKGROUND, **VERTEBRA_CODES},
        spacing_mm=spacing_mm,
        subject_id=subject_id,
    )
    return Phantom(
        ct=ct, tissue=tissue, vertebrae=vertebrae, l3_slice=l3, t12_slice=t12, l4_slice=l4
    )
