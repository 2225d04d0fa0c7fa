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

One counter, ``_count_planes``, makes the per-slice counts of
``measure_pieces``, ``vat_sat_ratio`` and ``evaluation.evaluate_pieces``,
for one mask or for two over the same slices. A plane at a time, it
selects each counted class's codes once in each mask and counts each
selection, and for two masks the voxels both select; each mask's muscle
selection also drops the CT values under it into that mask's histogram
for each region (``MuscleHistograms``). ``measure_pieces`` runs it over
the counted slab, from min(L3, T12, L4) to max(L3, T12, L4), a
``Piece`` of slices at a time: the tissue mask's planes with the CT's.
Each metric is read through ``MaskMetrics``: the counted ones from the
class table, and each muscle density from its histogram, as the exact
mean of the float32 HU of its voxels, correctly rounded
(``_exact_mean_hu``). ``measure_subject`` is the one-piece case, on
volumes that hold the whole grid or only the counted slab.
``muscle_density`` and ``tissue_area_2d``/``tissue_volume_3d`` keep
loops of their own: they are the per-metric reference that
``measure_subject`` is tested against.
Areas are cm² (pixel area sx*sy/100), volumes cm³ (voxel volume
sx*sy*sz/1000), densities are mean HU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyRegionError,
    NonFiniteHUError,
    UndefinedRatioError,
    UndefinedSMIError,
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
    UnitState,
    VoxelVolume,
    merge_target,
    require_same_geometry,
    require_tissue_vocabulary,
    rescale_to_hu,
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

    This is the one place a merge policy is applied, to codes through
    ``code_classes``: muscular fat moves to the policy's target tissue;
    under ``SEPARATE`` nothing moves.
    """
    classes = np.arange(N_CLASSES)
    target = merge_target(policy)
    if target is not None:
        classes[tissue_class(MUSCULAR_FAT)] = tissue_class(target)
    return classes


def code_classes(mask, policy: MergePolicy = MergePolicy.SEPARATE) -> np.ndarray:
    """Class each of the 256 codes of ``mask`` (a label volume or its header)
    is counted under once ``policy`` is applied."""
    classes = np.zeros(256, dtype=np.intp)
    for code, name in mask.label_map.items():
        if name in TISSUE_NAMES:
            classes[code] = tissue_class(name)
    return policy_classes(policy)[classes]


def _codes_of(classes: np.ndarray, column: int) -> list[int]:
    return np.flatnonzero(classes == column).tolist()


class Piece(NamedTuple):
    """Slices ``lo`` onward of one or more masks, and of the CT where it is read.

    ``masks`` holds each mask's uint8 planes over the same slices; ``ct``
    is the CT volume of those slices, or None where no CT is read.
    """

    lo: int
    masks: tuple[np.ndarray, ...]
    ct: VoxelVolume | None


def _ct_slices(ct: VoxelVolume, lo: int, hi: int) -> VoxelVolume:
    """Slices ``lo`` to ``hi`` of ``ct``, as a volume that shares its array."""
    z = ct.z_positions_mm
    return replace(ct, values=ct.values[lo:hi], z_positions_mm=z[lo:hi] if z is not None else None)


_NO_MUSCLE = "no skeletal-muscle voxels in the requested region"
_NON_FINITE = "NaN or infinite HU among the skeletal-muscle voxels"
# a raw int16 value v is binned at v + _RAW_OFFSET, its offset-binary code
_RAW_OFFSET = 1 << 15


def _exact_mean_hu(hu: np.ndarray, counts: np.ndarray) -> float:
    """Mean of the float32 HU values ``hu``, each taken ``counts`` times, correctly rounded.

    Each value is an integer multiple of 2^e, where e is the smallest
    binary exponent present less 24, the bits of a float32 significand.
    The multiples sum exactly in integers, and that sum over the voxel
    count is rounded once: the mean depends on no summation order, and a
    mean of zeros is +0.0. No voxel raises EmptyRegionError, and a NaN or
    infinite HU NonFiniteHUError.
    """
    if hu.size == 0:
        raise EmptyRegionError(_NO_MUSCLE)
    if not np.isfinite(hu).all():
        raise NonFiniteHUError(_NON_FINITE)
    hu = hu.astype(np.float64)
    e = int(np.frexp(hu)[1].min()) - 24
    multiples, n = np.ldexp(hu, -e), int(counts.sum())
    if float(np.abs(multiples).max()) * n < 2.0**63:  # no int64 product or partial sum overflows
        total = int(counts @ multiples.astype(np.int64))
    else:  # a rescale that spreads the HU over many magnitudes: Python ints
        total = sum(map(int.__mul__, counts.tolist(), map(int, multiples.tolist())))
    # int / int rounds correctly, and scaling by 2^e is exact
    return math.ldexp(total / n, e)


class MuscleHistograms:
    """The CT values under one mask's post-policy muscle voxels, one histogram per region.

    ``regions`` maps each region's name to its slices. The values of a
    piece's planes are binned together (``bin``): a raw CT's over the
    span of the raw values they hold, not the whole int16 range; an HU
    CT's, which exists only in memory, as a table of the values present
    and their counts. Each density is the exact mean of its histogram.
    """

    def __init__(self, regions: dict[str, slice]):
        self.regions = regions
        # a raw CT's histogram of each region, as its first bin and the counts from there
        self.counts = dict.fromkeys(regions, (0, np.zeros(0, dtype=np.int64)))
        # an HU CT's table of each region: values and their counts, a value
        # listed once per piece that holds it
        self.tables = dict.fromkeys(regions, (np.zeros(0, np.float32), np.zeros(0, np.int64)))
        self.pending: dict[str, list[np.ndarray]] = {name: [] for name in regions}  # not yet binned
        self.rescale: tuple[float, float] | None = None  # a raw CT's

    def add(self, z: int, ct: VoxelVolume, k: int, selected: np.ndarray) -> None:
        """Take the values of plane ``k`` of ``ct``, slice ``z``, where ``selected``."""
        names = [name for name, sl in self.regions.items() if sl.start <= z < sl.stop]
        if not names:
            return
        if ct.unit_state is UnitState.RAW:
            self.rescale = (ct.rescale_slope, ct.rescale_intercept)
        values = ct.values[k][selected]
        for name in names:
            self.pending[name].append(values)

    def bin(self) -> None:
        """Bin the values taken since the last call."""
        for name, pieces in self.pending.items():
            if not pieces:
                continue
            values = np.concatenate(pieces)
            pieces.clear()
            if values.size == 0:
                continue
            if self.rescale is None:
                table = zip(self.tables[name], np.unique(values, return_counts=True))
                self.tables[name] = tuple(np.concatenate(pair) for pair in table)
                continue
            binned = values.view(np.uint16)
            binned ^= _RAW_OFFSET
            start, stop = int(binned.min()), int(binned.max()) + 1
            lo, hist = self.counts[name]
            if hist.size == 0:
                lo = start
            if start < lo or stop > lo + hist.size:  # widen the span
                wide = np.zeros(max(lo + hist.size, stop) - min(lo, start), np.int64)
                wide[max(lo - start, 0) :][: hist.size] = hist
                lo, hist = min(lo, start), wide
            binned -= lo
            # unlike bincount, add.at makes no intp copy of the values
            np.add.at(hist, binned, 1)
            self.counts[name] = (lo, hist)

    def density(self, name: str) -> float:
        """Mean HU of region ``name``, the exact mean of its histogram."""
        if self.rescale is None:
            return _exact_mean_hu(*self.tables[name])
        lo, hist = self.counts[name]
        present = np.flatnonzero(hist)
        raw = (present + (lo - _RAW_OFFSET)).astype(np.int16)
        return _exact_mean_hu(rescale_to_hu(raw, *self.rescale), hist[present])


def muscle_histograms(picked: VertebraRegions) -> MuscleHistograms:
    """Empty ``MuscleHistograms`` of the L3 slice and the T12-L4 range of ``picked``."""
    nz = picked.geometry.nz
    return MuscleHistograms({name: region_slice(picked.found[name], nz) for name in ("l3", "t12_l4")})


def _wanted(classes: np.ndarray) -> list[tuple[int, list[int]]]:
    """Each tissue class that ``classes`` (``code_classes``) gives a code, with its codes."""
    wanted = [(c, _codes_of(classes, c)) for c in range(1, N_CLASSES)]
    return [(c, codes) for c, codes in wanted if codes]


def _count_planes(
    masks: tuple[np.ndarray, ...],
    wanted: list[tuple],
    muscle: Sequence[MuscleHistograms] = (),
    lo: int = 0,
    ct: VoxelVolume | None = None,
) -> np.ndarray:
    """Per-slice counts of each class of ``wanted`` on the planes of ``masks``, int64.

    ``masks`` holds the uint8 planes of one mask, or of two over the same
    slices; ``wanted`` lists each counted class with the codes each mask
    selects for it, ``(class, codes, ...)``. For one mask the result is
    its class table, ``[planes, N_CLASSES, 1]``; for two it is
    ``[planes, N_CLASSES, 3]``: each mask's class table, then the voxels
    that both select. Column 0, background, and a class not in
    ``wanted`` stay 0. With ``ct``, the CT over the same planes, which
    start at slice ``lo``, the selection that counts each mask's muscle
    class also bins the CT values under it into that mask's ``muscle``.
    """
    counts = np.zeros((len(masks[0]), N_CLASSES, 1 if len(masks) == 1 else 3), dtype=np.int64)
    m = tissue_class(SKELETAL_MUSCLE)
    # one plane at a time, every class counted while the plane is in
    # cache: no slab-sized mask, and a whole-plane count_nonzero is
    # several times faster than one along an axis
    for z in range(len(counts)):
        for c, *codes in wanted:
            selected = [select_codes(mask[z], mask_codes) for mask, mask_codes in zip(masks, codes)]
            row = [np.count_nonzero(s) for s in selected]
            if len(selected) == 2:
                row.append(np.count_nonzero(selected[0] & selected[1]))
            counts[z, c] = row
            if c == m and ct is not None:
                for k, histograms in enumerate(muscle):
                    histograms.add(lo + z, ct, z, selected[k])
            # no selection outlives its class: none is held while bin() runs
            del selected
    if ct is not None:
        for histograms in muscle:
            histograms.bin()
    return counts


def muscle_density(
    ct: VoxelVolume,
    mask: LabelVolume,
    region: MeasurementRegion,
    policy: MergePolicy = MergePolicy.MUSCLE,
) -> float:
    """Mean HU over skeletal-muscle voxels (post-policy) within the region.

    ``ct`` is raw or HU. The mean is that of ``MuscleHistograms``, over
    one piece: the exact mean of the voxels' float32 HU, correctly
    rounded. A NaN or infinite HU value among those voxels raises
    NonFiniteHUError.
    """
    require_same_geometry(ct, mask)
    require_tissue_vocabulary(mask)
    sl = region_slice(region, mask.nz)
    muscle = _codes_of(code_classes(mask, policy), tissue_class(SKELETAL_MUSCLE))
    histograms = MuscleHistograms({"region": sl})
    for z in range(sl.start, sl.stop):
        histograms.add(z, ct, z, select_codes(mask.codes[z], muscle))
    histograms.bin()
    return histograms.density("region")


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
    counts = _count_planes((planes,), _wanted(code_classes(mask, policy)))[:, :, 0]
    return vat_sat_ratio_from_counts(counts, mask, region)


def smi(area_cm2: float, height_m: float) -> float:
    """Skeletal muscle index: area normalized by height squared (cm²/m²).

    UndefinedSMIError (a ValueError), naming the height, unless the height
    is positive and the index finite: the square of 1e-200 is 0, and
    150 / 1e-160² overflows.
    """
    square = height_m * height_m if height_m > 0 else 0.0
    index = area_cm2 / square if square else math.inf
    if not math.isfinite(index):
        raise UndefinedSMIError(f"height_m {height_m} gives no finite SMI")
    return index


@dataclass(frozen=True)
class MaskMetrics:
    """The ``BodyCompResult`` metrics of one tissue mask under one policy.

    ``counts`` is a per-slice class table of the mask, ``[nz,
    N_CLASSES]`` over the slices of ``picked.geometry`` (the whole
    volume's). Only its skeletal-muscle, SAT and VAT columns are read,
    and they must hold the mask's counts under ``policy`` at least on
    the counted slab. ``measure`` and ``evaluate`` fill the four tissue
    columns (``evaluate`` muscular fat as given) and leave column 0, the
    background, at 0. Each muscle density is the exact mean of its
    histogram in ``muscle``, binned in the same pass; there are none
    without a CT. A metric whose name ends in ``_2d`` is read on the L3
    slice, one ending in ``_3d`` over the T12-L4 range.
    """

    picked: VertebraRegions
    counts: np.ndarray
    muscle: MuscleHistograms | None = None

    def metric(self, name: str, height_m: float | None) -> float | None:
        """Metric ``name``; SMI is None without a height."""
        key = "l3" if name.endswith("_2d") else "t12_l4"
        if name.startswith("muscle_density"):
            return self.muscle.density(key)
        region = self.picked.found[key]
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
    reads it; the metrics are the same either way. The counted slab is
    the one piece of ``measure_pieces``.
    """
    require_same_geometry(ct, tissue_mask)
    if isinstance(vertebra_mask, VertebraRegions):
        picked = vertebra_mask
    else:
        require_same_geometry(ct, vertebra_mask)
        picked = measurement_regions(vertebra_mask)

    counted = picked.counted_slab()
    z0 = slab_start(ct, picked.geometry, counted)
    lo, hi = counted.start - z0, counted.stop - z0
    piece = Piece(counted.start, (tissue_mask.codes[lo:hi],), _ct_slices(ct, lo, hi))
    return measure_pieces(tissue_mask, [piece], picked, subject, policy)


def measure_pieces(
    tissue,
    pieces: Iterable[Piece],
    picked: VertebraRegions,
    subject: SubjectRecord,
    policy: MergePolicy = MergePolicy.MUSCLE,
) -> BodyCompResult:
    """``measure_subject`` from one pass over the counted slab, a piece at a time.

    ``tissue`` is the tissue mask or its `.bcv` header: only its label
    map is read. ``pieces`` gives the mask and the CT over the counted
    slab of ``picked`` (``Piece``), in slice order, and is read once;
    pieces without a CT are passed over. Each plane's classes are
    counted, and its muscle voxels binned, with one selection.
    """
    if picked.missing:
        raise VertebraNotFoundError(next(iter(picked.missing.values())))

    wanted = _wanted(code_classes(tissue, policy))
    muscle = muscle_histograms(picked)
    # the range and the L3 slice are counted in one pass; rows outside
    # stay 0 and are never read
    counts = np.zeros((picked.geometry.nz, N_CLASSES, 1), dtype=np.int64)
    for lo, masks, ct in pieces:
        if ct is not None:  # a tissue file's slices outside the slab are only checked
            counts[lo : lo + len(masks[0])] = _count_planes(masks, wanted, (muscle,), lo, ct)
        del masks, ct  # nothing of a piece stays in this frame while the next is read
    # after the pass, as a volume read before is checked: a code the map
    # lacks is the first fault
    require_tissue_vocabulary(tissue)
    metrics = MaskMetrics(picked, counts[:, :, 0], muscle)
    l3, t12_l4 = picked.found["l3"], picked.found["t12_l4"]
    return BodyCompResult(
        subject_id=subject.subject_id,
        policy=policy,
        region_2d=l3.z,
        region_3d=(t12_l4.z_lo, t12_l4.z_hi),
        **{name: metrics.metric(name, subject.height_m) for name in METRIC_FIELDS},
    )
