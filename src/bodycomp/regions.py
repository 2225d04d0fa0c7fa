"""Vertebra-defined measurement regions and slice-distance utilities.

The 2D measurement slice is the one with the largest L3 label area; the
3D measurement range runs between the largest-T12 and largest-L4 slices,
endpoints inclusive. Ties in per-slice area break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LabelVocabularyError, VertebraNotFoundError
from .model import LabelVolume, vertebra_label


@dataclass(frozen=True)
class SingleSlice:
    z: int


@dataclass(frozen=True)
class SliceRange:
    """Inclusive slice range; ``degenerate`` flags a z_lo == z_hi collapse."""

    z_lo: int
    z_hi: int
    degenerate: bool = False

    def __post_init__(self):
        if self.z_lo > self.z_hi:
            raise ValueError(f"z_lo must be <= z_hi, got ({self.z_lo}, {self.z_hi})")


@dataclass(frozen=True)
class AllSlices:
    pass


MeasurementRegion = SingleSlice | SliceRange | AllSlices


def region_slice(region: MeasurementRegion, nz: int) -> slice:
    """Convert a region to a python slice over z, validating bounds."""
    if isinstance(region, SingleSlice):
        if not 0 <= region.z < nz:
            raise IndexError(f"slice {region.z} out of range [0, {nz})")
        return slice(region.z, region.z + 1)
    if isinstance(region, SliceRange):
        if not (0 <= region.z_lo <= region.z_hi < nz):
            raise IndexError(f"range ({region.z_lo}, {region.z_hi}) out of [0, {nz})")
        return slice(region.z_lo, region.z_hi + 1)
    if isinstance(region, AllSlices):
        return slice(0, nz)
    raise TypeError(f"not a measurement region: {region!r}")


def label_area_per_slice(mask: LabelVolume, label_name: str) -> np.ndarray:
    """Per-slice area of a label in cm² (count times sx*sy/100)."""
    return mask.slice_counts([mask.codes_for(label_name)])[:, 0] * mask.pixel_area_cm2


def largest_label_slice(mask: LabelVolume, label_name: str) -> int:
    """Index of the slice with the largest area of ``label_name``.

    Ties break to the lowest index. Raises VertebraNotFoundError when the
    label has no voxels anywhere (or is absent from the label map).
    """
    try:
        areas = label_area_per_slice(mask, label_name)
    except LabelVocabularyError:
        raise VertebraNotFoundError(f"label {label_name!r} absent from volume") from None
    if not areas.any():
        raise VertebraNotFoundError(f"label {label_name!r} has no voxels in volume")
    return int(np.argmax(areas))


def region_t12_l4(vertebrae: LabelVolume) -> SliceRange:
    """Inclusive range between the largest-T12 and largest-L4 slices.

    The endpoints are order-normalized so z_lo <= z_hi regardless of scan
    direction; a same-slice collapse is flagged degenerate.
    """
    t12 = largest_label_slice(vertebrae, vertebra_label("T12"))
    l4 = largest_label_slice(vertebrae, vertebra_label("L4"))
    lo, hi = min(t12, l4), max(t12, l4)
    return SliceRange(lo, hi, degenerate=(lo == hi))


def measurement_regions(
    vertebrae: LabelVolume,
) -> tuple[dict[str, MeasurementRegion], dict[str, str]]:
    """The largest-L3 slice (``"l3"``) and the T12-L4 range (``"t12_l4"``).

    Each region is picked once. A region whose vertebra level is missing
    is left out of the first dict, and the second gives, under the same
    name, the message of its VertebraNotFoundError.
    """
    # messages, not the exceptions: a stored exception's traceback would
    # keep this frame, and the callers' volumes, alive until a gc pass
    found: dict[str, MeasurementRegion] = {}
    missing: dict[str, str] = {}
    try:
        found["l3"] = SingleSlice(largest_label_slice(vertebrae, vertebra_label("L3")))
    except VertebraNotFoundError as exc:
        missing["l3"] = str(exc)
    try:
        found["t12_l4"] = region_t12_l4(vertebrae)
    except VertebraNotFoundError as exc:
        missing["t12_l4"] = str(exc)
    return found, missing


def slice_positions_mm(geometry) -> np.ndarray:
    """Physical z position per slice; index*spacing when positions are absent."""
    if geometry.z_positions_mm is not None:
        return np.asarray(geometry.z_positions_mm, dtype=float)
    sz = geometry.spacing_mm[2]
    return np.arange(geometry.nz, dtype=float) * sz


def slice_distance_cm(i: int, j: int, geometry) -> float:
    """Absolute physical distance between two slice indices, in cm."""
    nz = geometry.nz
    if not (0 <= i < nz and 0 <= j < nz):
        raise IndexError(f"slice indices ({i}, {j}) out of range [0, {nz})")
    pos = slice_positions_mm(geometry)
    return abs(float(pos[i]) - float(pos[j])) / 10.0


def sample_slices_by_interval(geometry, interval_cm: float) -> list[int]:
    """Greedy fixed-interval slice sampling starting at slice 0.

    Emits a slice, then skips forward until the cumulative physical
    distance from the last emitted slice reaches ``interval_cm``, and
    repeats. An interval smaller than the slice spacing selects every
    slice.
    """
    if not interval_cm > 0:
        raise ValueError(f"interval_cm must be > 0, got {interval_cm}")
    pos = slice_positions_mm(geometry)
    interval_mm = interval_cm * 10.0
    out = [0]
    last = pos[0]
    # small tolerance so exact multiples of the spacing are not skipped
    # by floating-point rounding
    eps = 1e-9
    for k in range(1, geometry.nz):
        if abs(pos[k] - last) >= interval_mm - eps:
            out.append(k)
            last = pos[k]
    return out
