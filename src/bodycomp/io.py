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

Every payload read is one walk over the file (``_walk``): whole slices in
file order, the slices asked for as volumes and, in a label file, the
rest as planes scanned a chunk at a time, each label code checked once
against the label map. ``read_volume`` (the whole file or one slab),
``read_slabs`` and ``read_code_counts`` are its cases.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass

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
    Geometry,
    LabelVolume,
    Sex,
    SubjectRecord,
    UnitState,
    VoxelVolume,
    code_counts,
    require_same_geometry,
    unmapped_codes,
)

MAGIC = b"BCV1"

# Payload bytes a chunked scan reads at a time (whole slices): the label
# codes outside a slab read, and the per-slice code counts
SCAN_CHUNK_BYTES = 1 << 22

_DTYPES = {"i16": np.dtype("<i2"), "u8": np.dtype("u1")}
_KIND_DTYPE = {"ct": "i16", "tissue_labels": "u8", "vertebra_labels": "u8"}

COHORT_COLUMNS = ("subject_id", "age_years", "sex", "race", "height_m")


def _label_kind(vol: LabelVolume) -> str:
    names = [n for c, n in vol.label_map.items() if c != 0]
    if names and all(n.startswith(VERTEBRA_PREFIX) for n in names):
        return "vertebra_labels"
    return "tissue_labels"


def _encode(vol: VoxelVolume | LabelVolume, geometry: Geometry) -> tuple[dict, np.ndarray]:
    """The header of the volume of ``geometry`` that ``vol`` is a slab of, and its payload."""
    header: dict = {
        "dims": list(geometry.dims),
        "spacing_mm": list(geometry.spacing_mm),
    }
    if geometry.z_positions_mm is not None:
        header["z_positions_mm"] = list(geometry.z_positions_mm)
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
        return header, vol.values.astype("<i2", copy=False)
    header["kind"] = _label_kind(vol)
    header["dtype"] = "u8"
    header["label_map"] = {str(c): n for c, n in vol.label_map.items()}
    return header, vol.codes


@contextmanager
def _replacing(path: str):
    """A new file, open for writing, that replaces ``path`` when the block ends.

    The file is made beside ``path``, with the mode ``open(path, "wb")``
    gives a new file. If the block raises, the file is removed and
    ``path`` is left as it was. An OSError names ``path``, as opening it
    would.
    """
    if path.endswith(os.sep) or os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    folder, name = os.path.split(path)
    tmp = os.path.join(folder, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def write_slabs(slabs, geometry: Geometry, path) -> None:
    """Write the volume of ``geometry``, given as its slab volumes in order, as `.bcv`.

    The header is ``geometry``'s and the first slab's (kind, rescale or
    label map, subject id); every slab must agree with it and have the
    geometry of its slices (``Geometry.slab``), and together they hold
    every slice once. ``slabs`` may be a lazy iterable: at most two
    slabs are held at a time. The bytes go to a temporary file beside
    ``path`` that replaces it after the last slab, so ``path`` may name a
    file the slabs are read from. On any failure, the iteration of
    ``slabs`` included, ``path`` is left as it was and no temporary file
    remains.
    """
    path = os.fspath(path)
    with _replacing(path) as fh:
        header, done = None, 0
        # a slab is dropped only once the next one is made: the memory
        # freed then is taken by the next slab's making, where dropping it
        # first lets the allocator hand it back to the system and fault it
        # in anew (10 times the page faults on a 512x512x400 postprocess)
        for slab in slabs:
            fields, payload = _encode(slab, geometry)
            if header is None:
                header = fields
                header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
                fh.write(MAGIC)
                fh.write(struct.pack("<Q", len(header_bytes)))
                fh.write(header_bytes)
            elif fields != header:
                raise VolumeFormatError(
                    f"{path}: the slab at slice {done} does not match the first slab's header"
                )
            if done + slab.nz > geometry.nz:
                raise VolumeFormatError(f"{path}: slabs hold more than {geometry.nz} slices")
            require_same_geometry(slab, geometry.slab(slice(done, done + slab.nz)))
            # a frozen array is C-contiguous: its own buffer is written, no
            # bytes copy of the slab
            fh.write(payload)
            done += slab.nz
        if done != geometry.nz:
            raise VolumeFormatError(f"{path}: slabs hold {done} of {geometry.nz} slices")


def write_volume(vol: VoxelVolume | LabelVolume, path) -> None:
    """Write a volume as `.bcv`; bytes are deterministic for a given volume.

    The one-slab case of ``write_slabs``: ``path`` is replaced only once
    the whole file is written.
    """
    write_slabs([vol], vol.geometry, path)


def _require(header: dict, key: str):
    if key not in header:
        raise HeaderError(f"header missing required key {key!r}")
    return header[key]


def _require_str(header: dict, key: str, path) -> str:
    value = _require(header, key)
    if not isinstance(value, str):
        raise HeaderError(f"{path}: {key} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class VolumeHeader:
    """The header of a `.bcv` file, checked against the file's size.

    ``fields`` is the header's JSON object; the payload starts at byte
    ``payload_offset``. ``label_map`` is None for a CT.
    """

    path: str
    kind: str
    dtype: np.dtype
    geometry: Geometry
    subject_id: str | None
    payload_offset: int
    fields: dict
    label_map: dict[int, str] | None


def _parse_header(fh, path) -> VolumeHeader:
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
    expected = nx * ny * nz * dtype.itemsize
    actual = size - 12 - header_len
    if actual < expected:
        raise TruncatedPayloadError(f"{path}: payload has {actual} bytes, dims imply {expected}")
    if actual > expected:
        raise HeaderError(f"{path}: payload has {actual} bytes, dims imply {expected}")

    subject_id = header.get("subject_id")
    if subject_id is not None and not isinstance(subject_id, str):
        raise HeaderError(f"{path}: subject_id must be a string, got {subject_id!r}")
    z_positions = header.get("z_positions_mm")
    label_map = None
    if kind != "ct":
        label_map = _require(header, "label_map")
        if not isinstance(label_map, dict):
            raise HeaderError(f"{path}: label_map must be a JSON object, got {label_map!r}")
    try:
        geometry = Geometry(
            tuple(dims), tuple(spacing), tuple(z_positions) if z_positions is not None else None
        )
        if label_map is not None:
            label_map = {int(c): str(n) for c, n in label_map.items()}
            if any(not 0 <= k <= 255 for k in label_map):
                raise ValueError("label_map codes must fit in unsigned 8 bits")
    except (ValueError, TypeError, OverflowError) as exc:
        raise HeaderError(f"{path}: header violates volume invariants: {exc}") from exc
    return VolumeHeader(
        str(path), kind, dtype, geometry, subject_id, 12 + header_len, header, label_map
    )


def read_header(path) -> VolumeHeader:
    """Read and check a `.bcv` file's header without its payload.

    Every header check of ``read_volume`` runs, the payload size against
    the file size included; a malformed file raises a
    ``VolumeFormatError`` subclass.
    """
    with open(path, "rb") as fh:
        return _parse_header(fh, path)


def _read_planes(fh, head: VolumeHeader, lo: int, hi: int) -> np.ndarray:
    """Slices ``lo`` to ``hi`` of the payload, read straight into an array."""
    nx, ny, _ = head.geometry.dims
    count = (hi - lo) * nx * ny
    fh.seek(head.payload_offset + lo * nx * ny * head.dtype.itemsize)
    values = np.fromfile(fh, dtype=head.dtype, count=count)
    if values.size < count:  # the file shrank after the size check
        raise TruncatedPayloadError(
            f"{head.path}: payload ends {count - values.size} voxels short of slice {hi}"
        )
    return values.reshape(hi - lo, ny, nx)


def chunk_slices(head: VolumeHeader) -> int:
    """Whole slices of ``head``'s payload in ``SCAN_CHUNK_BYTES``, at least one."""
    nx, ny, _ = head.geometry.dims
    return max(1, SCAN_CHUNK_BYTES // (nx * ny * head.dtype.itemsize))


def _volume(head: VolumeHeader, values: np.ndarray, geometry: Geometry):
    """The volume of ``values``: the slices of ``head``'s payload that ``geometry`` describes."""
    fields = head.fields
    try:
        if head.label_map is None:
            return VoxelVolume(
                values=values,
                spacing_mm=geometry.spacing_mm,
                rescale_slope=float(_require(fields, "rescale_slope")),
                rescale_intercept=float(_require(fields, "rescale_intercept")),
                unit_state=UnitState.RAW,
                z_positions_mm=geometry.z_positions_mm,
                subject_id=head.subject_id,
            )
        return LabelVolume(
            codes=values,
            label_map=head.label_map,
            spacing_mm=geometry.spacing_mm,
            z_positions_mm=geometry.z_positions_mm,
            subject_id=head.subject_id,
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise HeaderError(f"{head.path}: header violates volume invariants: {exc}") from exc


def _spans(lo: int, hi: int, step: int, as_volume: bool) -> list[tuple[int, int, bool]]:
    return [(k, min(k + step, hi), as_volume) for k in range(lo, hi, step)]


def _walk(fh, head: VolumeHeader, z: slice, step: int):
    """The payload of ``head``'s file, read in pieces of whole slices in file order.

    The slices ``z`` come as volumes of ``step`` slices each, with the
    geometry of their slices (``Geometry.slab``). The other slices of a
    label file come as planes, ``chunk_slices`` at a time; those of a CT
    are not read, as every 16-bit value is valid. Each piece is read
    straight into its array and is not kept once it is yielded.

    Each label piece is checked once against the label map: a volume by
    its constructor, planes by ``unmapped_codes``. When the map misses a
    code of a piece, the rest of the file is scanned, so that the
    ``HeaderError`` names every unmapped code, as a whole read's does:
    the pieces before held none.
    """
    label_map, nz, scan = head.label_map, head.geometry.nz, chunk_slices(head)
    pieces = _spans(z.start, z.stop, step, True)
    if label_map is not None:
        pieces = _spans(0, z.start, scan, False) + pieces + _spans(z.stop, nz, scan, False)
    for lo, hi, as_volume in pieces:
        piece, unmapped = _read_planes(fh, head, lo, hi), []
        try:
            if as_volume:
                piece = _volume(head, piece, head.geometry.slab(slice(lo, hi)))
            else:
                unmapped = unmapped_codes(piece, label_map)
        except HeaderError:
            # a label volume refuses only a code its map misses
            unmapped = [] if label_map is None else unmapped_codes(piece, label_map)
            if not unmapped:
                raise
        if unmapped:
            for k in range(hi, nz, scan):
                unmapped += unmapped_codes(_read_planes(fh, head, k, min(k + scan, nz)), label_map)
            raise HeaderError(
                f"{head.path}: header violates volume invariants: "
                f"codes {sorted(set(unmapped))} present in volume but not in label_map"
            )
        yield piece
        del piece  # nothing of a piece stays in this frame while the next is read


def read_code_counts(path) -> tuple[VolumeHeader, np.ndarray]:
    """A label file's header and the voxels of each code on each slice.

    The counts are ``code_counts`` of the payload, ``[nz, 256]``, taken
    a bounded chunk of slices at a time: the volume is never held whole.
    Every check of ``read_volume`` runs, the label map covering every code
    present included.
    """
    with open(path, "rb") as fh:
        head = _parse_header(fh, path)
        if head.label_map is None:
            raise HeaderError(f"{path}: kind {head.kind!r} holds no label codes")
        # no slice as a volume: every chunk comes as planes, and map holds
        # none of them while the next is read
        counts = np.concatenate(list(map(code_counts, _walk(fh, head, slice(0, 0), 1))))
    return head, counts


def read_volume(path, z: slice | None = None) -> VoxelVolume | LabelVolume:
    """Read a `.bcv` file; raw CT volumes load with ``unit_state=Raw``.

    A malformed file raises a ``VolumeFormatError`` subclass, whatever
    its bytes. The payload size is checked against the file size before
    the payload is read, and the payload is read straight into the array,
    with no bytes copy and no mapping of the file.

    With ``z``, a ``slice(lo, hi)`` of the slices, only those slices are
    read, into a volume of their geometry (``Geometry.slab``). Every
    header check still runs, and a label volume must still map every
    code of the slices outside ``z``: those are scanned a bounded chunk
    at a time. A CT needs no scan.
    """
    with open(path, "rb") as fh:
        head = _parse_header(fh, path)
        if z is None:
            z = slice(0, head.geometry.nz)
        head.geometry.slab(z)  # an IndexError before any read
        pieces = _walk(fh, head, z, z.stop - z.start)
        # the one volume among the planes scanned around it; filter holds
        # none of those while the next is read
        [vol] = filter(lambda piece: not isinstance(piece, np.ndarray), pieces)
        return vol


def read_slabs(path, step: int):
    """The volume at ``path``, as slab volumes of ``step`` slices each, in order.

    Each slab has the geometry of its slices (``Geometry.slab``; the last
    may be shorter) and is read straight into its array; none is kept
    once it is yielded. Every header check of ``read_volume`` runs before the first
    slab. A label slab must map every code it holds; when one does not,
    the rest of the file is scanned a chunk at a time, so that the
    ``HeaderError`` names every unmapped code, as a whole read's does.
    A ``step`` below 1 raises ValueError before the file is opened.
    """
    if step < 1:
        raise ValueError(f"read_slabs step must be >= 1, got {step}")
    with open(path, "rb") as fh:
        head = _parse_header(fh, path)
        yield from _walk(fh, head, slice(0, head.geometry.nz), step)


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
