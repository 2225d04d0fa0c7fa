"""Domain types, unit conventions, HU conversion, and the muscular-fat merge.

Array convention: volumes are stored as C-contiguous numpy arrays indexed
``[z, y, x]`` so that x is the fastest-varying axis in memory and
``values[k]`` is the axial slice at index ``k``. ``dims`` is reported in
``(nx, ny, nz)`` order, matching the on-disk header convention.

All types are immutable after construction (arrays are frozen in place),
so instances can be shared read-only across parallel workers.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from functools import lru_cache
from typing import Mapping

import numpy as np

from .errors import (
    GeometryMismatchError,
    LabelVocabularyError,
    UnitStateError,
)

# Canonical tissue label names.
BACKGROUND = "background"
SKELETAL_MUSCLE = "skeletal_muscle"
SAT = "sat"
VAT = "vat"
MUSCULAR_FAT = "muscular_fat"
TISSUE_NAMES = (SKELETAL_MUSCLE, SAT, VAT, MUSCULAR_FAT)

VERTEBRA_PREFIX = "vertebrae_"


def default_tissue_label_map() -> dict[int, str]:
    """Label map used by tissue masks produced in this package."""
    return {0: BACKGROUND, 1: SKELETAL_MUSCLE, 2: SAT, 3: VAT, 4: MUSCULAR_FAT}


def vertebra_label(level: str) -> str:
    """Map a vertebra level like ``"L3"`` to its label name ``"vertebrae_L3"``."""
    if level.startswith(VERTEBRA_PREFIX):
        return level
    return VERTEBRA_PREFIX + level


class UnitState(Enum):
    RAW = "raw"
    HU = "hu"


class MergePolicy(Enum):
    """Where muscular-fat voxels are counted before any measurement.

    ``MUSCLE`` is the default: muscular fat is evaluated as part of the
    skeletal-muscle compartment. ``SAT``/``VAT`` fold it into the
    respective fat label, ``SEPARATE`` leaves it as its own label.
    """

    MUSCLE = "muscle"
    SAT = "sat"
    VAT = "vat"
    SEPARATE = "separate"


class Sex(Enum):
    FEMALE = "Female"
    MALE = "Male"
    UNKNOWN = "Unknown"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _unchecked(cls, **values):
    """An instance of the frozen dataclass ``cls`` holding ``values`` as
    they are, its other fields at their defaults, without ``__post_init__``.

    For what is known to pass every check already: a slab of a checked
    grid, or a slab's voxels of the dtype its volume stores. A stream of
    slabs then costs its checks once, not once a slab.
    """
    obj = object.__new__(cls)
    # a frozen dataclass refuses setattr, not its instance dict
    obj.__dict__.update(_defaults(cls), **values)
    return obj


@lru_cache(maxsize=None)
def _defaults(cls) -> dict:
    """The fields of the dataclass ``cls`` that have a default, with it."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


class _Grid:
    """What a geometry and a volume share: ``dims`` (nx, ny, nz), ``spacing_mm``
    and ``z_positions_mm``, and the sizes derived from them."""

    def _set_grid(self, shape) -> None:
        """Check the grid of ``shape`` ([nz, ny, nx]); store spacing and z as floats."""
        spacing_mm, z_positions_mm = self.spacing_mm, self.z_positions_mm
        if len(shape) != 3:
            raise ValueError(f"volume must be 3-D, got shape {shape}")
        if any(n < 1 for n in shape):
            raise ValueError(f"all dims must be >= 1, got dims {shape[::-1]}")
        nz, ny, nx = shape
        if len(spacing_mm) != 3 or any(not (0 < s < math.inf) for s in spacing_mm):
            raise ValueError(f"spacing must be three positive finite values, got {spacing_mm}")
        object.__setattr__(self, "spacing_mm", tuple(float(s) for s in spacing_mm))
        # Python float products overflow to inf without a warning
        if not (math.isfinite(self.pixel_area_cm2) and math.isfinite(self.voxel_volume_cm3)):
            raise ValueError(f"spacing {spacing_mm} overflows the pixel area or voxel volume")
        if z_positions_mm is not None:
            if len(z_positions_mm) != nz:
                raise ValueError(
                    f"z_positions_mm has {len(z_positions_mm)} entries, expected {nz}"
                )
            # an overflowing step is inf, and inf - inf is nan: both are refused below
            with np.errstate(over="ignore", invalid="ignore"):
                steps = np.diff(z_positions_mm)
            if not (np.isfinite(z_positions_mm).all() and np.isfinite(steps).all()):
                raise ValueError("z_positions_mm and their steps must be finite")
            if not (np.all(steps > 0) or np.all(steps < 0)):
                raise ValueError("z_positions_mm must be strictly monotonic")
            object.__setattr__(self, "z_positions_mm", tuple(float(z) for z in z_positions_mm))
        sx, sy, sz = self.spacing_mm
        z = self.z_positions_mm
        # the thickest slab of the grid: nz slices of sz; with z positions
        # one slice is sz thick, and a slab of two or more (slice_thickness_mm
        # sums to its z extent plus half of each end step) at most twice
        # the z extent, so every slab of an accepted grid is accepted
        thickness = nz * sz
        if z is not None and nz > 1:
            thickness = max(2 * abs(z[-1] - z[0]), sz)
        # a whole plane's area and the thickest slab's volume, multiplied in
        # the order the measures multiply counts, so no measure of a mask overflows
        if not (math.isfinite(nx * ny * self.pixel_area_cm2)
                and math.isfinite(nx * ny * thickness * sx * sy / 1000.0)):
            raise ValueError(
                f"dims {shape[::-1]}, spacing {spacing_mm} and a slab {thickness} mm thick "
                f"overflow the area of a slice or the volume of a slab"
            )

    @property
    def nz(self) -> int:
        return self.dims[2]

    @property
    def pixel_area_cm2(self) -> float:
        sx, sy, _ = self.spacing_mm
        return sx * sy / 100.0

    @property
    def voxel_volume_cm3(self) -> float:
        sx, sy, sz = self.spacing_mm
        return sx * sy * sz / 1000.0


@dataclass(frozen=True)
class Geometry(_Grid):
    """The grid of a volume without its voxels: what ``same_geometry`` compares.

    A `.bcv` header and the regions picked from a vertebra mask carry the
    geometry of a whole volume when only some of its slices are read.
    """

    dims: tuple[int, int, int]
    spacing_mm: tuple[float, float, float]
    z_positions_mm: tuple[float, ...] | None = None

    def __post_init__(self):
        self._set_grid(tuple(self.dims)[::-1])
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    def slab(self, sl: slice) -> Geometry:
        """Geometry of the slices ``sl`` (a ``slice(lo, hi)`` inside the volume)."""
        nx, ny, nz = self.dims
        lo, hi = sl.start, sl.stop
        if lo is None or hi is None or not 0 <= lo < hi <= nz or sl.step not in (None, 1):
            raise IndexError(f"slab {sl} is not a slice range inside [0, {nz})")
        z = self.z_positions_mm
        # the grid check bounds the thickest slab, so every slab passes it
        return _unchecked(
            Geometry, dims=(nx, ny, hi - lo), spacing_mm=self.spacing_mm,
            z_positions_mm=z[sl] if z is not None else None,
        )


class _Volume(_Grid):
    """A grid whose voxels are the ``[z, y, x]`` array named by ``_voxels``."""

    _voxels: str

    @property
    def dims(self) -> tuple[int, int, int]:
        """(nx, ny, nz)."""
        nz, ny, nx = getattr(self, self._voxels).shape
        return (nx, ny, nz)

    @property
    def geometry(self) -> Geometry:
        # a volume's grid passed the checks a geometry makes
        return _unchecked(
            Geometry, dims=self.dims, spacing_mm=self.spacing_mm, z_positions_mm=self.z_positions_mm
        )

    @classmethod
    def on_grid(cls, voxels: np.ndarray, geometry: Geometry, **meta):
        """The volume of ``voxels`` on ``geometry``, a checked grid of their
        shape, built without the constructor's checks.

        ``voxels`` must already be of the dtype the volume stores, and
        ``meta`` (the other fields) as the constructor would store it: a
        raw CT's int16 values and finite rescale, or a label volume's
        uint8 codes and the ``{int: str}`` map of every code among them.
        ``voxels`` is frozen in place.
        """
        return _unchecked(
            cls, **{cls._voxels: _freeze(voxels)}, spacing_mm=geometry.spacing_mm,
            z_positions_mm=geometry.z_positions_mm, **meta,
        )


@dataclass(frozen=True)
class VoxelVolume(_Volume):
    """A 3-D scalar grid: raw CT counts or converted Hounsfield Units.

    ``values`` is ``int16`` while ``unit_state`` is RAW and ``float32``
    after HU conversion. ``rescale_slope``/``rescale_intercept`` carry the
    affine mapping from raw counts to HU.
    """

    values: np.ndarray
    spacing_mm: tuple[float, float, float]
    rescale_slope: float = 1.0
    rescale_intercept: float = 0.0
    unit_state: UnitState = UnitState.RAW
    z_positions_mm: tuple[float, ...] | None = None
    subject_id: str | None = None

    _voxels = "values"

    def __post_init__(self):
        values = np.asarray(self.values)
        self._set_grid(values.shape)
        if not (np.isfinite(self.rescale_slope) and np.isfinite(self.rescale_intercept)):
            raise ValueError(
                f"rescale slope and intercept must be finite, got "
                f"{self.rescale_slope} and {self.rescale_intercept}"
            )
        if self.unit_state is UnitState.RAW:
            if not np.issubdtype(values.dtype, np.integer):
                raise ValueError("raw volumes must hold integer values")
            # an int16 array holds no value outside the range: skip the scan
            if (
                values.dtype != np.int16
                and values.size
                and (values.min() < -32768 or values.max() > 32767)
            ):
                raise ValueError("raw values exceed the signed 16-bit range")
            values = values.astype(np.int16, copy=False)
        else:
            values = values.astype(np.float32, copy=False)
        object.__setattr__(self, "values", _freeze(values))

    def hu_of(self, values: np.ndarray) -> np.ndarray:
        """Float32 HU of ``values`` taken from this volume's ``values``.

        An HU volume's values are returned as they are. Raw values get the
        rescale with the arithmetic of ``to_hu``, so each one is
        bit-identical to the converted volume's. A rescale that overflows
        float32 yields inf HU without a warning: the measures that read HU
        raise NonFiniteHUError on it.
        """
        if self.unit_state is UnitState.HU:
            return values
        return rescale_to_hu(values, self.rescale_slope, self.rescale_intercept)


def rescale_to_hu(raw: np.ndarray, slope: float, intercept: float) -> np.ndarray:
    """Float32 HU of raw CT values: ``slope * raw + intercept`` in float32.

    The one HU arithmetic, of ``to_hu`` and ``VoxelVolume.hu_of``; a
    rescale that overflows float32 yields inf HU without a warning.
    """
    # ufunc-mediated cast; plain astype is much slower on some builds
    with np.errstate(over="ignore", invalid="ignore"):
        hu = np.multiply(raw, np.float32(slope), dtype=np.float32)
        hu += np.float32(intercept)
    return hu


def select_codes(codes: np.ndarray, wanted: list[int]) -> np.ndarray:
    """Boolean mask of the entries of ``codes`` equal to one of ``wanted``."""
    # an OR of equalities is several times faster than np.isin on uint8
    if not wanted:
        return np.zeros(codes.shape, dtype=bool)
    selected = codes == wanted[0]
    for code in wanted[1:]:
        selected |= codes == code
    return selected


def code_counts(planes: np.ndarray) -> np.ndarray:
    """Voxels of each code on each of ``planes`` (uint8, ``[n, ny, nx]``).

    Returns ``[n, 256]`` int64 counts: one ``bincount`` of each plane's
    nonzero codes, code 0 by difference. On a mostly-zero mask, such as
    vertebra labels, each plane's count reads only its few marked voxels.
    """
    counts = np.zeros((len(planes), 256), dtype=np.int64)
    for z, plane in enumerate(planes):
        counts[z] = np.bincount(plane[plane != 0], minlength=256)
    counts[:, 0] = planes[0].size - counts.sum(axis=1)
    return counts


def codes_for(label_map: Mapping[int, str], label_name: str) -> list[int]:
    """All codes ``label_map`` maps to ``label_name``; raises if the name is unknown."""
    found = sorted(c for c, n in label_map.items() if n == label_name)
    if not found:
        raise LabelVocabularyError(f"label {label_name!r} not in label map")
    return found


def _checked_label_map(label_map: Mapping) -> dict[int, str]:
    """``label_map`` as int codes to str names; a code outside 0..255 raises ValueError."""
    label_map = {int(c): str(n) for c, n in dict(label_map).items()}
    if any(not 0 <= c <= 255 for c in label_map):
        raise ValueError("label_map codes must fit in unsigned 8 bits")
    return label_map


def unmapped_codes(codes: np.ndarray, label_map: Mapping[int, str]) -> list[int]:
    """Sorted nonzero codes of ``codes`` (uint8) that ``label_map`` lacks."""
    mapped = np.zeros(256, dtype=bool)
    mapped[0] = True
    mapped[list(label_map)] = True
    # fast path: when every code up to the observed maximum is mapped, no
    # per-voxel membership scan is needed
    if mapped[: int(codes.max(initial=0)) + 1].all():
        return []
    return np.flatnonzero(np.bincount(codes[~mapped[codes]], minlength=256)).tolist()


@dataclass(frozen=True)
class LabelVolume(_Volume):
    """A 3-D unsigned 8-bit label grid plus its code-to-name map.

    Every nonzero code that occurs in ``codes`` must appear in
    ``label_map``; code 0 is background by convention.
    """

    codes: np.ndarray
    label_map: Mapping[int, str]
    spacing_mm: tuple[float, float, float]
    z_positions_mm: tuple[float, ...] | None = None
    subject_id: str | None = None

    _voxels = "codes"

    def __post_init__(self):
        codes = np.asarray(self.codes)
        self._set_grid(codes.shape)
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError("label codes must be integers")
        # a uint8 array holds no code outside the range: skip the scan
        if codes.dtype != np.uint8 and codes.size and (codes.min() < 0 or codes.max() > 255):
            raise ValueError("label codes exceed the unsigned 8-bit range")
        codes = codes.astype(np.uint8, copy=False)
        label_map = _checked_label_map(self.label_map)
        unmapped = unmapped_codes(codes, label_map)
        if unmapped:
            raise ValueError(f"codes {unmapped} present in volume but not in label_map")
        object.__setattr__(self, "codes", _freeze(codes))
        object.__setattr__(self, "label_map", label_map)

    def codes_for(self, label_name: str) -> list[int]:
        """All codes mapping to ``label_name``; raises if the name is unknown."""
        return codes_for(self.label_map, label_name)

    def binary(self, label_name: str) -> np.ndarray:
        """Boolean mask of voxels carrying ``label_name``."""
        return select_codes(self.codes, self.codes_for(label_name))


@dataclass(frozen=True)
class SubjectRecord:
    """Demographics for one subject; height is optional. Age and height are finite."""

    subject_id: str
    age_years: float
    sex: Sex = Sex.UNKNOWN
    race: str = ""
    height_m: float | None = None

    def __post_init__(self):
        if not 0 <= self.age_years < math.inf:
            raise ValueError(f"age_years must be finite and >= 0, got {self.age_years}")
        if self.height_m is not None and not 0 < self.height_m < math.inf:
            raise ValueError(f"height_m must be finite and > 0 when present, got {self.height_m}")


# the demographic groupings of a cohort report: an age bin or a record field
GROUP_BY_CHOICES = ("age_bin", "sex", "race")


@dataclass(frozen=True)
class BodyCompResult:
    """The four body-composition metrics in 2D (L3) and 3D (T12-L4) form.

    ``region_2d`` is the measured L3 slice index; ``region_3d`` the
    inclusive slice range. ``smi_2d`` is None when the subject's height is
    unknown; no 3D SMI is defined.
    """

    subject_id: str
    policy: MergePolicy
    region_2d: int
    # written to CSV as one column per part
    region_3d: tuple[int, int] = field(metadata={"parts": ("lo", "hi")})
    # the metrics carry the unit their CSV column is suffixed with
    muscle_density_2d: float = field(metadata={"unit": "hu"})
    muscle_density_3d: float = field(metadata={"unit": "hu"})
    vat_sat_ratio_2d: float = field(metadata={"unit": ""})
    vat_sat_ratio_3d: float = field(metadata={"unit": ""})
    muscle_area_2d: float = field(metadata={"unit": "cm2"})
    muscle_volume_3d: float = field(metadata={"unit": "cm3"})
    smi_2d: float | None = field(default=None, metadata={"unit": "cm2_m2"})

    def __post_init__(self):
        z_lo, z_hi = self.region_3d
        if z_lo > z_hi:
            raise ValueError(f"region_3d must have z_lo <= z_hi, got {self.region_3d}")
        if self.muscle_area_2d < 0 or self.muscle_volume_3d < 0:
            raise ValueError("areas and volumes must be >= 0")
        if self.vat_sat_ratio_2d < 0 or self.vat_sat_ratio_3d < 0:
            raise ValueError("VAT/SAT ratios must be >= 0")

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["policy"] = self.policy.value
        doc["region_3d"] = list(self.region_3d)
        return doc

    @classmethod
    def from_dict(cls, doc) -> BodyCompResult:
        """Rebuild a result from its ``to_dict`` form.

        Raises ValueError naming the missing keys or the first bad one.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        missing = [f.name for f in fields(cls) if f.name not in doc]
        if missing:
            raise ValueError(f"missing keys {missing}")

        def bad(key: str, what: str) -> ValueError:
            return ValueError(f"key {key!r} must be {what}, got {doc[key]!r}")

        policies = {p.value: p for p in MergePolicy}
        if not isinstance(doc["subject_id"], str):
            raise bad("subject_id", "a string")
        if not isinstance(doc["policy"], str) or doc["policy"] not in policies:
            raise bad("policy", f"one of {sorted(policies)}")
        if not _is_int(doc["region_2d"]):
            raise bad("region_2d", "an integer")
        region_3d = doc["region_3d"]
        if not (
            isinstance(region_3d, list) and len(region_3d) == 2 and all(map(_is_int, region_3d))
        ):
            raise bad("region_3d", "a list of two integers")
        for f in fields(cls):
            value = doc[f.name]
            if "unit" in f.metadata and not (
                _is_finite_number(value) or (value is None and f.default is None)
            ):
                raise bad(f.name, "a finite number")
        return cls(
            subject_id=doc["subject_id"],
            policy=policies[doc["policy"]],
            region_2d=doc["region_2d"],
            region_3d=tuple(region_3d),
            **{name: doc[name] for name in METRIC_FIELDS},
        )


# The seven metrics, in the order of the fields
METRIC_FIELDS = tuple(f.name for f in fields(BodyCompResult) if "unit" in f.metadata)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # NaN fails the comparison; so do infinities and ints beyond float range
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def same_geometry(a, b) -> bool:
    """True when two volumes share dims, spacing, and z positions."""
    return (
        a.dims == b.dims
        and a.spacing_mm == b.spacing_mm
        and a.z_positions_mm == b.z_positions_mm
    )


@contextmanager
def _naming(path, *errors):
    """Re-raise an error of the types ``errors`` from the block with its
    message after ``path``, the file at fault; a ``path`` of None, as of
    a volume in memory, leaves the error as it is."""
    try:
        yield
    except errors as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {exc}") from None


def _same_geometry(named, a, b) -> None:
    """``require_same_geometry`` of the grids of ``a`` and ``b``, each a volume
    or a `.bcv` header; a mismatch names the file of ``named``, the one that differs."""
    with _naming(getattr(named, "path", None), GeometryMismatchError):
        require_same_geometry(a.geometry, b.geometry)


def require_same_geometry(a, b) -> None:
    """Raise GeometryMismatchError naming how ``a``'s grid differs from ``b``'s.

    When dims and spacing agree, the message names the first slice whose
    z position differs, or the side that has no z positions.
    """
    if same_geometry(a, b):
        return
    grid, za, zb = f"dims {a.dims} spacing {a.spacing_mm}", a.z_positions_mm, b.z_positions_mm
    if a.dims != b.dims or a.spacing_mm != b.spacing_mm:
        differs = f"{grid} vs dims {b.dims} spacing {b.spacing_mm}"
    elif za is None or zb is None:
        sides = ("no z positions" if z is None else "z positions" for z in (za, zb))
        differs = f"{grid}; " + " vs ".join(sides)
    else:
        k = next(k for k, (p, q) in enumerate(zip(za, zb)) if p != q)
        differs = f"{grid}; slice {k} at z {za[k]} vs {zb[k]}"
    raise GeometryMismatchError(f"geometry mismatch: {differs}")


def to_hu(vol: VoxelVolume) -> VoxelVolume:
    """Convert raw CT counts to Hounsfield Units.

    Applies ``hu = rescale_slope * raw + rescale_intercept`` voxelwise;
    geometry and rescale metadata are unchanged. Converting an already-HU
    volume raises (no double conversion). The measures and kernels take
    the CT as read and convert no voxel: the measures bin raw values and
    convert each distinct value once, and the kernels compare raw values
    with a raw interval. This is for callers that want the whole array.
    """
    if vol.unit_state is not UnitState.RAW:
        raise UnitStateError("volume is already in HU")
    return replace(vol, values=vol.hu_of(vol.values), unit_state=UnitState.HU)


def require_tissue_vocabulary(mask) -> None:
    """Raise unless the label map of ``mask`` (a volume or header) covers all
    four tissue names; the error of a header names its file."""
    names = set(mask.label_map.values())
    missing = [n for n in TISSUE_NAMES if n not in names]
    if missing:
        with _naming(getattr(mask, "path", None), LabelVocabularyError):
            raise LabelVocabularyError(f"mask lacks tissue labels {missing}; expected the tissue vocabulary")


_POLICY_TARGET = {
    MergePolicy.MUSCLE: SKELETAL_MUSCLE,
    MergePolicy.SAT: SAT,
    MergePolicy.VAT: VAT,
}


def merge_target(policy: MergePolicy) -> str | None:
    """Tissue name that absorbs muscular fat under ``policy``; None for SEPARATE."""
    return _POLICY_TARGET.get(policy)


def apply_merge_policy(mask: LabelVolume, policy: MergePolicy) -> LabelVolume:
    """Relabel muscular-fat voxels according to ``policy``.

    All other voxels are untouched and the total count of nonzero voxels
    is conserved. ``SEPARATE`` returns the input unchanged. The merge is
    idempotent: a second application finds no muscular-fat voxels.
    """
    require_tissue_vocabulary(mask)
    if policy is MergePolicy.SEPARATE:
        return mask
    mf_codes = mask.codes_for(MUSCULAR_FAT)
    target = min(mask.codes_for(merge_target(policy)))
    lut = np.arange(256, dtype=np.uint8)
    lut[mf_codes] = target
    return replace(mask, codes=lut[mask.codes])
