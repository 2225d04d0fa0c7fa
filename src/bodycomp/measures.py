"""The four body-composition metrics in 2D and 3D.

All measurements count tissue after the muscular-fat policy is applied.
The policy is applied as a selection of codes (``policy_codes``): the
target tissue's codes plus the muscular-fat codes, read over the
measured region only, never as a merged copy of the volume. Areas are
cm² (pixel area sx*sy/100), volumes cm³ (voxel volume sx*sy*sz/1000),
densities are mean HU.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyRegionError, NonFiniteHUError, UndefinedRatioError
from .model import (
    MUSCULAR_FAT,
    SAT,
    SKELETAL_MUSCLE,
    VAT,
    BodyCompResult,
    LabelVolume,
    MergePolicy,
    SubjectRecord,
    VoxelVolume,
    merge_target,
    require_hu,
    require_same_geometry,
    require_tissue_vocabulary,
    select_codes,
    vertebra_label,
)
from .regions import (
    AllSlices,
    MeasurementRegion,
    SingleSlice,
    SliceRange,
    largest_label_slice,
    region_slice,
    region_t12_l4,
)


def policy_codes(mask: LabelVolume, label_name: str, policy: MergePolicy) -> list[int]:
    """Codes of ``mask`` that count as ``label_name`` once ``policy`` is applied.

    This is the merge as a selection: the target tissue gains the
    muscular-fat codes and muscular fat keeps none, so no merged copy of
    the volume is made. ``SEPARATE`` leaves the label's own codes.
    """
    target = merge_target(policy)
    if target is None:
        return mask.codes_for(label_name)
    require_tissue_vocabulary(mask)
    if label_name == MUSCULAR_FAT:
        return []
    codes = mask.codes_for(label_name)
    if label_name == target:
        codes += mask.codes_for(MUSCULAR_FAT)
    return codes


def _counts(
    mask: LabelVolume, label_name: str, region: MeasurementRegion, policy: MergePolicy
) -> np.ndarray:
    codes = policy_codes(mask, label_name, policy)
    return mask.slice_counts(codes, region_slice(region, mask.nz))


def muscle_density(
    hu: VoxelVolume,
    mask: LabelVolume,
    region: MeasurementRegion,
    policy: MergePolicy = MergePolicy.MUSCLE,
) -> float:
    """Mean HU over skeletal-muscle voxels (post-policy) within the region.

    A NaN or infinite HU value among those voxels raises NonFiniteHUError.
    """
    require_hu(hu)
    require_same_geometry(hu, mask)
    require_tissue_vocabulary(mask)
    sl = region_slice(region, mask.nz)
    selected = select_codes(mask.codes[sl], policy_codes(mask, SKELETAL_MUSCLE, policy))
    vals = hu.values[sl][selected]
    if vals.size == 0:
        raise EmptyRegionError("no skeletal-muscle voxels in the requested region")
    # a float64 sum of float32 values cannot overflow: only a non-finite
    # voxel makes the mean non-finite
    density = float(vals.mean(dtype=np.float64))
    if not np.isfinite(density):
        raise NonFiniteHUError("NaN or infinite HU among the skeletal-muscle voxels")
    return density


def slice_thickness_mm(geometry) -> np.ndarray:
    """Per-slice thickness in mm.

    Uniform spacing uses sz everywhere. With per-slice z positions the
    thickness is the midpoint-to-midpoint step; end slices use their
    single adjacent step.
    """
    nz = geometry.nz
    sz = geometry.spacing_mm[2]
    if geometry.z_positions_mm is None or nz == 1:
        return np.full(nz, sz, dtype=float)
    pos = np.asarray(geometry.z_positions_mm, dtype=float)
    steps = np.abs(np.diff(pos))
    thickness = np.empty(nz, dtype=float)
    thickness[0] = steps[0]
    thickness[-1] = steps[-1]
    thickness[1:-1] = (steps[:-1] + steps[1:]) / 2.0
    return thickness


def tissue_measure_from_counts(
    counts: np.ndarray, geometry, region: MeasurementRegion
) -> float:
    """Area (single slice, cm²) or volume (cm³) from per-slice voxel counts.

    ``counts`` holds one count per slice of ``region``. Uniform spacing
    gives count times sx*sy/100 or sx*sy*sz/1000; with per-slice z
    positions each slice contributes its local thickness instead.
    """
    if isinstance(region, SingleSlice):
        return int(counts[0]) * geometry.pixel_area_cm2
    if geometry.z_positions_mm is None:
        return int(counts.sum()) * geometry.voxel_volume_cm3
    sx, sy, _ = geometry.spacing_mm
    thickness = slice_thickness_mm(geometry)[region_slice(region, geometry.nz)]
    return float(np.sum(counts * thickness) * sx * sy / 1000.0)


def tissue_area_2d(
    mask: LabelVolume,
    label_name: str,
    slice_z: int,
    policy: MergePolicy = MergePolicy.SEPARATE,
) -> float:
    """Cross-sectional area of a label (post-policy) on one slice, in cm²."""
    region = SingleSlice(slice_z)
    return tissue_measure_from_counts(_counts(mask, label_name, region, policy), mask, region)


def tissue_volume_3d(
    mask: LabelVolume,
    label_name: str,
    region: SliceRange | AllSlices,
    policy: MergePolicy = MergePolicy.SEPARATE,
) -> float:
    """Volume of a label (post-policy) over a slice range, in cm³."""
    return tissue_measure_from_counts(_counts(mask, label_name, region, policy), mask, region)


def vat_sat_ratio_from_counts(
    vat_counts: np.ndarray, sat_counts: np.ndarray, geometry, region: MeasurementRegion
) -> float:
    """VAT measure over SAT measure, from per-slice counts of ``region``.

    A zero SAT measure raises UndefinedRatioError; zero VAT yields 0.0.
    """
    sat = tissue_measure_from_counts(sat_counts, geometry, region)
    if sat == 0:
        raise UndefinedRatioError("SAT measure is zero in the requested region")
    return tissue_measure_from_counts(vat_counts, geometry, region) / sat


def vat_sat_ratio(
    mask: LabelVolume,
    region: MeasurementRegion,
    policy: MergePolicy = MergePolicy.MUSCLE,
) -> float:
    """VAT measure divided by SAT measure within the region (post-policy).

    Uses areas for a single-slice region and volumes otherwise. A zero
    SAT measure raises UndefinedRatioError; zero VAT yields 0.0.
    """
    require_tissue_vocabulary(mask)
    vat, sat = (_counts(mask, n, region, policy) for n in (VAT, SAT))
    return vat_sat_ratio_from_counts(vat, sat, mask, region)


def smi(area_cm2: float, height_m: float) -> float:
    """Skeletal muscle index: area normalized by height squared (cm²/m²)."""
    if not height_m > 0:
        raise ValueError(f"height_m must be > 0, got {height_m}")
    return area_cm2 / (height_m * height_m)


def measure_subject(
    hu: VoxelVolume,
    tissue_mask: LabelVolume,
    vertebra_mask: LabelVolume,
    subject: SubjectRecord,
    policy: MergePolicy = MergePolicy.MUSCLE,
) -> BodyCompResult:
    """Compute all metrics for one subject.

    2D metrics are measured on the largest-L3 slice, 3D metrics over the
    T12-L4 range. SMI is omitted when the subject's height is unknown;
    no 3D SMI is computed.
    """
    require_hu(hu)
    require_same_geometry(hu, tissue_mask)
    require_same_geometry(hu, vertebra_mask)

    l3 = largest_label_slice(vertebra_mask, vertebra_label("L3"))
    region_2d = SingleSlice(l3)
    region_3d = region_t12_l4(vertebra_mask)

    require_tissue_vocabulary(tissue_mask)
    area_2d = tissue_area_2d(tissue_mask, SKELETAL_MUSCLE, l3, policy)
    result = BodyCompResult(
        subject_id=subject.subject_id,
        policy=policy,
        region_2d=l3,
        region_3d=(region_3d.z_lo, region_3d.z_hi),
        muscle_density_2d=muscle_density(hu, tissue_mask, region_2d, policy),
        muscle_density_3d=muscle_density(hu, tissue_mask, region_3d, policy),
        vat_sat_ratio_2d=vat_sat_ratio(tissue_mask, region_2d, policy),
        vat_sat_ratio_3d=vat_sat_ratio(tissue_mask, region_3d, policy),
        muscle_area_2d=area_2d,
        muscle_volume_3d=tissue_volume_3d(tissue_mask, SKELETAL_MUSCLE, region_3d, policy),
        smi_2d=smi(area_2d, subject.height_m) if subject.height_m is not None else None,
    )
    return result
