"""The four body-composition metrics in 2D and 3D.

Every count-based measure reads one representation, the per-slice class
table: the number of voxels of each class on each slice, where column 0
is background or any other name and columns 1-4 are ``TISSUE_NAMES``.
The muscular-fat policy is one fold over those classes
(``policy_classes``): muscular fat is counted under the policy's target
tissue and nothing else moves. Counting a mask's codes under their
folded classes (``code_classes``) gives the policy-applied table
directly, and the same folded classes give the codes whose HU the muscle
density averages, so no merged copy of a volume is made.

``measure_subject`` counts the tissue mask's classes once, over the
T12-L4 range together with the L3 slice, and reads every metric through
``MaskMetrics``: the counted ones from that table, and each muscle
density from ``gather_muscle_hu``, the one place that picks muscle
voxels out of a CT, which ``muscle_density`` calls too. The tissue mask
and CT may hold only that slab of the volume. ``evaluation`` reads the
ground-truth and predicted marginals of its joint table through the
same class. Areas are cm² (pixel area sx*sy/100), volumes cm³ (voxel volume
sx*sy*sz/1000), densities are mean HU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyRegionError,
    NonFiniteHUError,
    UndefinedRatioError,
    VertebraNotFoundError,
)
from .model import (
    METRIC_FIELDS,
    MUSCULAR_FAT,
    SAT,
    SKELETAL_MUSCLE,
    TISSUE_NAMES,
    VAT,
    BodyCompResult,
    LabelVolume,
    MergePolicy,
    SubjectRecord,
    VoxelVolume,
    merge_target,
    require_same_geometry,
    require_tissue_vocabulary,
    select_codes,
    slab_start,
)
from .regions import (
    AllSlices,
    MeasurementRegion,
    SingleSlice,
    SliceRange,
    VertebraRegions,
    measurement_regions,
    region_slice,
)

# Class-table columns: background or any other name, then TISSUE_NAMES.
N_CLASSES = len(TISSUE_NAMES) + 1


def tissue_class(label_name: str) -> int:
    """Class-table column of a tissue name."""
    return TISSUE_NAMES.index(label_name) + 1


def policy_classes(policy: MergePolicy) -> np.ndarray:
    """Class each class is counted under once ``policy`` is applied.

    This is the one place a merge policy turns into counts: muscular fat
    moves to the policy's target tissue; under ``SEPARATE`` nothing moves.
    """
    classes = np.arange(N_CLASSES)
    target = merge_target(policy)
    if target is not None:
        classes[tissue_class(MUSCULAR_FAT)] = tissue_class(target)
    return classes


def code_classes(mask: LabelVolume, policy: MergePolicy = MergePolicy.SEPARATE) -> np.ndarray:
    """Class each of the 256 codes of ``mask`` is counted under once ``policy`` is applied."""
    classes = np.zeros(256, dtype=np.intp)
    for code, name in mask.label_map.items():
        if name in TISSUE_NAMES:
            classes[code] = tissue_class(name)
    return policy_classes(policy)[classes]


def _codes_of(classes: np.ndarray, column: int) -> list[int]:
    return np.flatnonzero(classes == column).tolist()


def _count_slab(codes: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Per-slice class counts of the planes ``codes``, ``[planes, N_CLASSES]`` int64.

    ``classes`` gives each code's class.
    """
    counts = np.zeros((len(codes), N_CLASSES), dtype=np.int64)
    sets = [(c, _codes_of(classes, c)) for c in range(1, N_CLASSES)]
    sets = [(c, wanted) for c, wanted in sets if wanted]
    # one plane at a time, every class counted while the plane is in
    # cache: no slab-sized mask, and a whole-plane count_nonzero is
    # several times faster than one along an axis
    for z, plane in enumerate(codes):
        for c, wanted in sets:
            counts[z, c] = np.count_nonzero(select_codes(plane, wanted))
    counts[:, 0] = codes[0].size - counts.sum(axis=1)
    return counts


def gather_muscle_hu(
    ct: VoxelVolume,
    mask: LabelVolume,
    region: MeasurementRegion,
    policy: MergePolicy,
    picked: VertebraRegions | None = None,
) -> np.ndarray:
    """Float32 HU of the post-policy muscle voxels of ``mask`` in ``region``.

    Without ``picked``, ``ct`` and ``mask`` are whole volumes. With it,
    ``region`` is one of its regions, and each of ``ct`` and ``mask``
    holds either the whole volume of ``picked.geometry`` or only its
    counted slab. The voxels are gathered a slice at a time (no
    slab-sized mask), in slab order, and converted at once.
    """
    geometry, slab = mask.geometry, slice(0, mask.nz)
    if picked is not None:
        geometry, slab = picked.geometry, picked.counted_slab()
    ct_z0, mask_z0 = (slab_start(vol, geometry, slab) for vol in (ct, mask))
    sl = region_slice(region, geometry.nz)
    muscle = _codes_of(code_classes(mask, policy), tissue_class(SKELETAL_MUSCLE))
    raw = np.concatenate(
        [
            ct.values[z - ct_z0][select_codes(mask.codes[z - mask_z0], muscle)]
            for z in range(sl.start, sl.stop)
        ]
    )
    return ct.hu_of(raw)


def _mean_hu(hu: np.ndarray) -> float:
    """Mean of muscle HU values, as float64 over the float32 values."""
    if hu.size == 0:
        raise EmptyRegionError("no skeletal-muscle voxels in the requested region")
    # a float64 sum of float32 values cannot overflow: only a non-finite
    # voxel makes the mean non-finite
    density = float(hu.mean(dtype=np.float64))
    if not np.isfinite(density):
        raise NonFiniteHUError("NaN or infinite HU among the skeletal-muscle voxels")
    return density


def muscle_density(
    ct: VoxelVolume,
    mask: LabelVolume,
    region: MeasurementRegion,
    policy: MergePolicy = MergePolicy.MUSCLE,
) -> float:
    """Mean HU over skeletal-muscle voxels (post-policy) within the region.

    ``ct`` is raw or HU; only the muscle voxels are converted. A NaN or
    infinite HU value among those voxels raises NonFiniteHUError.
    """
    require_same_geometry(ct, mask)
    require_tissue_vocabulary(mask)
    return _mean_hu(gather_muscle_hu(ct, mask, region, policy))


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


def _tissue_counts(
    mask: LabelVolume, label_name: str, region: MeasurementRegion, policy: MergePolicy
) -> np.ndarray:
    """Per-slice voxel counts of ``label_name`` over ``region`` once ``policy`` is applied."""
    if merge_target(policy) is not None:
        require_tissue_vocabulary(mask)
    codes = mask.codes_for(label_name)
    if label_name in TISSUE_NAMES:  # a policy moves no other name
        codes = _codes_of(code_classes(mask, policy), tissue_class(label_name))
    planes = mask.codes[region_slice(region, mask.nz)]
    return np.array([np.count_nonzero(select_codes(plane, codes)) for plane in planes])


def tissue_area_2d(
    mask: LabelVolume,
    label_name: str,
    slice_z: int,
    policy: MergePolicy = MergePolicy.SEPARATE,
) -> float:
    """Cross-sectional area of a label (post-policy) on one slice, in cm²."""
    region = SingleSlice(slice_z)
    return tissue_measure_from_counts(
        _tissue_counts(mask, label_name, region, policy), mask, region
    )


def tissue_volume_3d(
    mask: LabelVolume,
    label_name: str,
    region: SliceRange | AllSlices,
    policy: MergePolicy = MergePolicy.SEPARATE,
) -> float:
    """Volume of a label (post-policy) over a slice range, in cm³."""
    return tissue_measure_from_counts(
        _tissue_counts(mask, label_name, region, policy), mask, region
    )


def vat_sat_ratio_from_counts(counts: np.ndarray, geometry, region: MeasurementRegion) -> float:
    """VAT measure over SAT measure, from the class-table rows of ``region``.

    A zero SAT measure raises UndefinedRatioError; zero VAT yields 0.0.
    """
    sat = tissue_measure_from_counts(counts[:, tissue_class(SAT)], geometry, region)
    if sat == 0:
        raise UndefinedRatioError("SAT measure is zero in the requested region")
    return tissue_measure_from_counts(counts[:, tissue_class(VAT)], geometry, region) / sat


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
    planes = mask.codes[region_slice(region, mask.nz)]
    counts = _count_slab(planes, code_classes(mask, policy))
    return vat_sat_ratio_from_counts(counts, mask, region)


def smi(area_cm2: float, height_m: float) -> float:
    """Skeletal muscle index: area normalized by height squared (cm²/m²)."""
    if not height_m > 0:
        raise ValueError(f"height_m must be > 0, got {height_m}")
    return area_cm2 / (height_m * height_m)


@dataclass(frozen=True)
class MaskMetrics:
    """The ``BodyCompResult`` metrics of one tissue mask under one policy.

    ``counts`` is the mask's policy-applied class table, ``[nz,
    N_CLASSES]`` over the slices of ``picked.geometry`` (the whole
    volume's), counted at least on its counted slab. The muscle
    densities gather the HU of ``ct`` under ``mask`` (``gather_muscle_hu``);
    there are none without a CT. A metric whose name ends in ``_2d`` is
    read on the L3 slice, one ending in ``_3d`` over the T12-L4 range.
    """

    picked: VertebraRegions
    counts: np.ndarray
    mask: LabelVolume
    policy: MergePolicy
    ct: VoxelVolume | None = None

    def metric(self, name: str, height_m: float | None) -> float | None:
        """Metric ``name``; SMI is None without a height."""
        region = self.picked.found["l3" if name.endswith("_2d") else "t12_l4"]
        if name.startswith("muscle_density"):
            return _mean_hu(gather_muscle_hu(self.ct, self.mask, region, self.policy, self.picked))
        geometry = self.picked.geometry
        counts = self.counts[region_slice(region, geometry.nz)]
        if name.startswith("vat_sat_ratio"):
            return vat_sat_ratio_from_counts(counts, geometry, region)
        muscle = counts[:, tissue_class(SKELETAL_MUSCLE)]
        measure = tissue_measure_from_counts(muscle, geometry, region)
        if name.startswith("smi"):
            return smi(measure, height_m) if height_m is not None else None
        return measure


def measure_subject(
    ct: VoxelVolume,
    tissue_mask: LabelVolume,
    vertebra_mask: LabelVolume | VertebraRegions,
    subject: SubjectRecord,
    policy: MergePolicy = MergePolicy.MUSCLE,
) -> BodyCompResult:
    """Compute all metrics for one subject.

    2D metrics are measured on the largest-L3 slice, 3D metrics over the
    T12-L4 range. SMI is omitted when the subject's height is unknown;
    no 3D SMI is computed. ``ct`` is raw or HU, as read.

    ``vertebra_mask`` is the vertebra label volume, or the regions already
    picked from it by ``measurement_regions``. ``ct`` and ``tissue_mask``
    hold every slice of it, or only its counted slab
    (``VertebraRegions.counted_slab``), as ``read_volume(path, z=...)``
    reads it; the metrics are the same either way.
    """
    require_same_geometry(ct, tissue_mask)
    if isinstance(vertebra_mask, VertebraRegions):
        picked = vertebra_mask
    else:
        require_same_geometry(ct, vertebra_mask)
        picked = measurement_regions(vertebra_mask)
    if picked.missing:
        raise VertebraNotFoundError(next(iter(picked.missing.values())))
    require_tissue_vocabulary(tissue_mask)

    l3, t12_l4 = picked.found["l3"], picked.found["t12_l4"]
    # the range and the L3 slice are counted in one pass; rows outside
    # stay 0 and are never read
    counted = picked.counted_slab()
    z0 = slab_start(ct, picked.geometry, counted)
    counts = np.zeros((picked.geometry.nz, N_CLASSES), dtype=np.int64)
    counts[counted] = _count_slab(
        tissue_mask.codes[counted.start - z0 : counted.stop - z0],
        code_classes(tissue_mask, policy),
    )
    metrics = MaskMetrics(picked, counts, tissue_mask, policy, ct)
    return BodyCompResult(
        subject_id=subject.subject_id,
        policy=policy,
        region_2d=l3.z,
        region_3d=(t12_l4.z_lo, t12_l4.z_hi),
        **{name: metrics.metric(name, subject.height_m) for name in METRIC_FIELDS},
    )
