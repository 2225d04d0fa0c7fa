"""Vertebra-defined measurement regions and slice-distance utilities.

The 2D measurement slice is the one with the largest L3 label area; the
3D measurement range runs between the largest-T12 and largest-L4 slices,
endpoints inclusive. Ties in per-slice area break to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import LabelVocabularyError, VertebraNotFoundError
from .model import Geometry, LabelVolume, code_counts, codes_for, vertebra_label


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
    counts = code_counts(mask.codes)[:, mask.codes_for(label_name)].sum(axis=1)
    return counts * mask.pixel_area_cm2


def _largest_slice(counts: np.ndarray, label_map: Mapping[int, str], label_name: str) -> int:
    """Lowest slice of the largest count of ``label_name``, from ``code_counts``."""
    try:
        voxels = counts[:, codes_for(label_map, label_name)].sum(axis=1)
    except LabelVocabularyError:
        raise VertebraNotFoundError(f"label {label_name!r} absent from volume") from None
    if not voxels.any():
        raise VertebraNotFoundError(f"label {label_name!r} has no voxels in volume")
    return int(np.argmax(voxels))


def largest_label_slice(mask: LabelVolume, label_name: str) -> int:
    """Index of the slice with the largest area of ``label_name``.

    Ties break to the lowest index. Raises VertebraNotFoundError when the
    label has no voxels anywhere (or is absent from the label map).
    """
    return _largest_slice(code_counts(mask.codes), mask.label_map, label_name)


def _t12_l4(counts: np.ndarray, label_map: Mapping[int, str]) -> SliceRange:
    t12 = _largest_slice(counts, label_map, vertebra_label("T12"))
    l4 = _largest_slice(counts, label_map, vertebra_label("L4"))
    lo, hi = min(t12, l4), max(t12, l4)
    return SliceRange(lo, hi, degenerate=(lo == hi))


def region_t12_l4(vertebrae: LabelVolume) -> SliceRange:
    """Inclusive range between the largest-T12 and largest-L4 slices.

    The endpoints are order-normalized so z_lo <= z_hi regardless of scan
    direction; a same-slice collapse is flagged degenerate.
    """
    return _t12_l4(code_counts(vertebrae.codes), vertebrae.label_map)


@dataclass(frozen=True)
class VertebraRegions:
    """The regions picked from one vertebra mask, and that mask's geometry.

    ``found`` holds the largest-L3 slice (``"l3"``) and the T12-L4 range
    (``"t12_l4"``). A region whose vertebra level is missing is left out
    of it, and ``missing`` gives, under the same name, the message of its
    VertebraNotFoundError.
    """

    geometry: Geometry
    found: dict[str, MeasurementRegion]
    missing: dict[str, str]

    def counted_slab(self) -> slice:
        """Slices from min(L3, T12, L4) to max(L3, T12, L4): all a metric reads.

        Without all three levels it raises the first missing level's
        VertebraNotFoundError.
        """
        if self.missing:
            raise VertebraNotFoundError(next(iter(self.missing.values())))
        l3, t12_l4 = self.found["l3"], self.found["t12_l4"]
        return slice(min(l3.z, t12_l4.z_lo), max(l3.z, t12_l4.z_hi) + 1)


def regions_from_counts(
    counts: np.ndarray, label_map: Mapping[int, str], geometry: Geometry
) -> VertebraRegions:
    """The regions of a vertebra mask, from its per-slice code counts.

    ``counts`` is the mask's ``code_counts``; each level is picked at the
    lowest slice of its largest area.
    """
    # messages, not the exceptions: a stored exception's traceback would
    # keep this frame, and the callers' volumes, alive until a gc pass
    found: dict[str, MeasurementRegion] = {}
    missing: dict[str, str] = {}
    try:
        found["l3"] = SingleSlice(_largest_slice(counts, label_map, vertebra_label("L3")))
    except VertebraNotFoundError as exc:
        missing["l3"] = str(exc)
    try:
        found["t12_l4"] = _t12_l4(counts, label_map)
    except VertebraNotFoundError as exc:
        missing["t12_l4"] = str(exc)
    return VertebraRegions(geometry, found, missing)


def measurement_regions(vertebrae: LabelVolume) -> VertebraRegions:
    """The largest-L3 slice and the T12-L4 range, from one scan of the mask."""
    counts = code_counts(vertebrae.codes)
    return regions_from_counts(counts, vertebrae.label_map, vertebrae.geometry)


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
