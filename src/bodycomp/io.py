"""Bit-exact reading/writing of `.bcv` volumes and cohort CSV ingestion.

The `.bcv` container is a single file::

    bytes 0-3    magic "BCV1"
    bytes 4-11   header length, unsigned 64-bit little-endian
    header       UTF-8 JSON
    payload      little-endian voxels, x fastest, then y, then z

Header keys: ``dims`` [nx, ny, nz], ``spacing_mm`` [sx, sy, sz], ``dtype``,
``kind``, optional ``z_positions_mm`` and ``subject_id``; CT volumes carry
``rescale_slope``/``rescale_intercept``, label volumes carry ``label_map``
(JSON object, code as string key). File size is exactly
``12 + header_len + payload`` bytes.

Valid dtype/kind combinations:

    kind             dtype   loads as
    ct               i16     VoxelVolume (unit_state=Raw)
    tissue_labels    u8      LabelVolume
    vertebra_labels  u8      LabelVolume

Any other combination is a header error. HU-converted volumes are not
representable (no float dtype in v1); convert after reading.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct

import numpy as np

from .errors import (
    BadMagicError,
    CohortError,
    HeaderError,
    TruncatedPayloadError,
    UnknownDtypeError,
    UnknownKindError,
    VolumeFormatError,
)
from .model import (
    VERTEBRA_PREFIX,
    LabelVolume,
    Sex,
    SubjectRecord,
    UnitState,
    VoxelVolume,
)

MAGIC = b"BCV1"

_DTYPES = {"i16": np.dtype("<i2"), "u8": np.dtype("u1")}
_KIND_DTYPE = {"ct": "i16", "tissue_labels": "u8", "vertebra_labels": "u8"}

COHORT_COLUMNS = ("subject_id", "age_years", "sex", "race", "height_m")


def _label_kind(vol: LabelVolume) -> str:
    names = [n for c, n in vol.label_map.items() if c != 0]
    if names and all(n.startswith(VERTEBRA_PREFIX) for n in names):
        return "vertebra_labels"
    return "tissue_labels"


def write_volume(vol: VoxelVolume | LabelVolume, path) -> None:
    """Write a volume as `.bcv`; bytes are deterministic for a given volume."""
    header: dict = {
        "dims": list(vol.dims),
        "spacing_mm": list(vol.spacing_mm),
    }
    if vol.z_positions_mm is not None:
        header["z_positions_mm"] = list(vol.z_positions_mm)
    if vol.subject_id is not None:
        header["subject_id"] = vol.subject_id
    if isinstance(vol, VoxelVolume):
        if vol.unit_state is not UnitState.RAW:
            raise VolumeFormatError(
                "HU volumes are not representable in .bcv v1; write the raw volume"
            )
        header["kind"] = "ct"
        header["dtype"] = "i16"
        header["rescale_slope"] = vol.rescale_slope
        header["rescale_intercept"] = vol.rescale_intercept
        payload = vol.values.astype("<i2", copy=False)
    else:
        header["kind"] = _label_kind(vol)
        header["dtype"] = "u8"
        header["label_map"] = {str(c): n for c, n in vol.label_map.items()}
        payload = vol.codes
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        # the frozen array is C-contiguous: its own buffer is written, no
        # bytes copy of the volume
        fh.write(payload)


def _require(header: dict, key: str):
    if key not in header:
        raise HeaderError(f"header missing required key {key!r}")
    return header[key]


def _require_str(header: dict, key: str, path) -> str:
    value = _require(header, key)
    if not isinstance(value, str):
        raise HeaderError(f"{path}: {key} must be a string, got {value!r}")
    return value


def read_volume(path) -> VoxelVolume | LabelVolume:
    """Read a `.bcv` file; raw CT volumes load with ``unit_state=Raw``.

    A malformed file raises a ``VolumeFormatError`` subclass, whatever
    its bytes. The payload size is checked against the file size before
    the payload is read, and the payload is read straight into the array,
    with no bytes copy and no mapping of the file.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(12)
        if len(prefix) >= 4 and prefix[:4] != MAGIC:
            raise BadMagicError(f"{path}: not a BCV1 file")
        if len(prefix) < 12:
            raise TruncatedPayloadError(f"{path}: file shorter than the fixed 12-byte prefix")
        (header_len,) = struct.unpack("<Q", prefix[4:12])
        if size < 12 + header_len:
            raise TruncatedPayloadError(f"{path}: header truncated")
        header_bytes = fh.read(header_len)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad UTF-8, bad JSON and over-long integers
            raise HeaderError(f"{path}: header is not valid UTF-8 JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise HeaderError(f"{path}: header must be a JSON object")

        kind = _require_str(header, "kind", path)
        if kind not in _KIND_DTYPE:
            raise UnknownKindError(f"{path}: unknown kind {kind!r}")
        dtype_name = _require_str(header, "dtype", path)
        if dtype_name not in _DTYPES:
            raise UnknownDtypeError(f"{path}: unknown dtype {dtype_name!r}")
        if dtype_name != _KIND_DTYPE[kind]:
            raise HeaderError(
                f"{path}: kind {kind!r} requires dtype {_KIND_DTYPE[kind]!r}, "
                f"got {dtype_name!r}"
            )

        dims = _require(header, "dims")
        if (
            not isinstance(dims, list)
            or len(dims) != 3
            or any(not isinstance(n, int) or n < 1 for n in dims)
        ):
            raise HeaderError(f"{path}: dims must be three positive integers, got {dims}")
        nx, ny, nz = dims
        spacing = _require(header, "spacing_mm")

        dtype = _DTYPES[dtype_name]
        count = nx * ny * nz
        expected = count * dtype.itemsize
        actual = size - 12 - header_len
        if actual < expected:
            raise TruncatedPayloadError(
                f"{path}: payload has {actual} bytes, dims imply {expected}"
            )
        if actual > expected:
            raise HeaderError(
                f"{path}: payload has {actual} bytes, dims imply {expected}"
            )
        values = np.fromfile(fh, dtype=dtype, count=count)
        if values.size < count:  # the file shrank after the size check
            raise TruncatedPayloadError(
                f"{path}: payload has {values.nbytes} bytes, dims imply {expected}"
            )
    values = values.reshape(nz, ny, nx)

    z_positions = header.get("z_positions_mm")
    subject_id = header.get("subject_id")
    if subject_id is not None and not isinstance(subject_id, str):
        raise HeaderError(f"{path}: subject_id must be a string, got {subject_id!r}")
    try:
        if kind == "ct":
            return VoxelVolume(
                values=values,
                spacing_mm=tuple(spacing),
                rescale_slope=float(_require(header, "rescale_slope")),
                rescale_intercept=float(_require(header, "rescale_intercept")),
                unit_state=UnitState.RAW,
                z_positions_mm=tuple(z_positions) if z_positions is not None else None,
                subject_id=subject_id,
            )
        label_map = _require(header, "label_map")
        if not isinstance(label_map, dict):
            raise HeaderError(f"{path}: label_map must be a JSON object, got {label_map!r}")
        return LabelVolume(
            codes=values,
            label_map={int(c): str(n) for c, n in label_map.items()},
            spacing_mm=tuple(spacing),
            z_positions_mm=tuple(z_positions) if z_positions is not None else None,
            subject_id=subject_id,
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise HeaderError(f"{path}: header violates volume invariants: {exc}") from exc


def read_cohort_csv(path) -> list[SubjectRecord]:
    """Read demographics rows; blank height parses as absent.

    Expects the header ``subject_id,age_years,sex,race,height_m``. Raises
    on a missing column, non-numeric age/height, or duplicate subject_id.
    """
    records: list[SubjectRecord] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        missing = [c for c in COHORT_COLUMNS if c not in fields]
        if missing:
            raise CohortError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            sid = (row["subject_id"] or "").strip()
            if not sid:
                raise CohortError(f"{path}:{lineno}: empty subject_id")
            if sid in seen:
                raise CohortError(f"{path}:{lineno}: duplicate subject_id {sid!r}")
            seen.add(sid)
            try:
                age = float(row["age_years"])
            except (TypeError, ValueError):
                raise CohortError(
                    f"{path}:{lineno}: non-numeric age_years {row['age_years']!r}"
                ) from None
            height_text = (row["height_m"] or "").strip()
            height: float | None
            if height_text == "":
                height = None
            else:
                try:
                    height = float(height_text)
                except ValueError:
                    raise CohortError(
                        f"{path}:{lineno}: non-numeric height_m {height_text!r}"
                    ) from None
            sex_text = (row["sex"] or "").strip().lower()
            sex = {"female": Sex.FEMALE, "male": Sex.MALE}.get(sex_text, Sex.UNKNOWN)
            try:
                records.append(
                    SubjectRecord(
                        subject_id=sid,
                        age_years=age,
                        sex=sex,
                        race=(row["race"] or "").strip(),
                        height_m=height,
                    )
                )
            except ValueError as exc:
                raise CohortError(f"{path}:{lineno}: {exc}") from None
    return records


def format_number(x: float, sig: int = 6) -> str:
    """Render a number with 6 significant digits for CSV output.

    A NaN or infinite value raises ValueError: no CSV cell reads ``nan``.
    """
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if not math.isfinite(x):
        raise ValueError(f"refusing to write the non-finite number {x!r}")
    return f"{x:.{sig}g}"
