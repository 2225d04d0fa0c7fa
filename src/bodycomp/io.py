"""Bit-exact reading/writing of `.bcv` volumes and cohort CSV ingestion.

The `.bcv` container is a single file::

    bytes 0-3    magic "BCV1"
    bytes 4-11   header length, unsigned 64-bit little-endian
    header       UTF-8 JSON
    payload      little-endian voxels, x fastest, then y, then z

Header keys: ``dims`` [nx, ny, nz], ``spacing_mm`` [sx, sy, sz], ``dtype``,
``kind``, optional ``z_positions_mm`` and ``subject_id``; CT volumes carry
``rescale_slope``/``rescale_intercept``, label volumes carry ``label_map``
(JSON object, code as string key). Every number is a JSON number, not a
boolean or a string, and a missing key is refused naming the file. File
size is exactly ``12 + header_len + payload`` bytes.

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
against the label map. ``read_header`` reads no payload.
``read_volume`` reads the whole file or one slab, parsing its header
once. ``read_in_step`` walks the files of headers already read, of one
grid, side by side, a chunk of slices at a time, and parses none of
them again: the masks of ``measure`` and ``evaluate`` with the CT's
counted slab, the CT and mask of ``postprocess``, and a vertebra file's
code counts. A file that changed since its header was read (another
device, inode, size or modification time) is refused.
"""

from __future__ import annotations

import csv
import errno
import json
import math
import os
import struct
from contextlib import ExitStack, closing, contextmanager, suppress
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
    _checked_label_map,
    _is_finite_number,
    _is_int,
    require_same_geometry,
    unmapped_codes,
)

MAGIC = b"BCV1"

# Payload bytes a chunked read takes at a time (whole slices): the label
# codes outside a slab read, and each chunk of ``read_in_step``. 1 MiB is
# 2 slices of a 512x512 CT and 4 of its label files; a command holds about
# one chunk of each file it reads. A chunk's grid and volume are built from
# the checked header, not checked again (``Geometry.slab``,
# ``_Volume.on_grid``), so a small chunk adds little fixed cost
SCAN_CHUNK_BYTES = 1 << 20

_DTYPES = {"i16": np.dtype("<i2"), "u8": np.dtype("u1")}
_KIND_DTYPE = {"ct": "i16", "tissue_labels": "u8", "vertebra_labels": "u8"}

COHORT_COLUMNS = ("subject_id", "age_years", "sex", "race", "height_m")


def _label_kind(vol: LabelVolume) -> str:
    names = [n for c, n in vol.label_map.items() if c != 0]
    if names and all(n.startswith(VERTEBRA_PREFIX) for n in names):
        return "vertebra_labels"
    return "tissue_labels"


def _encode(vol: VoxelVolume | LabelVolume) -> tuple[dict, np.ndarray]:
    """The header fields of ``vol`` beside its grid, and its payload."""
    header: dict = {}
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
            fields, payload = _encode(slab)
            if header is None:
                header = fields
                grid = {"dims": list(geometry.dims), "spacing_mm": list(geometry.spacing_mm)}
                if geometry.z_positions_mm is not None:
                    grid["z_positions_mm"] = list(geometry.z_positions_mm)
                header_bytes = json.dumps(
                    {**grid, **header}, sort_keys=True, separators=(",", ":")
                ).encode()
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


def _require(header: dict, key: str, path):
    if key not in header:
        raise HeaderError(f"{path}: header missing required key {key!r}")
    return header[key]


def _require_str(header: dict, key: str, path) -> str:
    value = _require(header, key, path)
    if not isinstance(value, str):
        raise HeaderError(f"{path}: {key} must be a string, got {value!r}")
    return value


def _require_finite(header: dict, key: str, path) -> float:
    """The header's ``key``: a finite JSON number, not a boolean."""
    value = _require(header, key, path)
    if not _is_finite_number(value):
        raise HeaderError(f"{path}: {key} must be a finite number, got {value!r}")
    return float(value)


def _finite_numbers(values, key: str, path) -> list | None:
    """``values``, the header's ``key``: None or a list of finite JSON numbers."""
    if values is not None and not (isinstance(values, list) and all(map(_is_finite_number, values))):
        raise HeaderError(f"{path}: {key} must be a list of finite numbers, got {values!r}")
    return values


@dataclass(frozen=True)
class VolumeHeader:
    """The header of a `.bcv` file, checked against the file's size.

    The payload starts at byte ``payload_offset``. ``rescale`` is a CT's
    (slope, intercept) and ``label_map`` a label file's; each is None for
    the other kind. ``identity`` is the file's (device, inode, size,
    modification time in ns) when the header was read: a payload read
    from the header refuses a file that no longer has it.
    """

    path: str
    kind: str
    dtype: np.dtype
    geometry: Geometry
    subject_id: str | None
    payload_offset: int
    rescale: tuple[float, float] | None
    label_map: dict[int, str] | None
    identity: tuple[int, int, int, int]


def _identity(fh) -> tuple[int, int, int, int]:
    """The (device, inode, size, modification time in ns) of the open file ``fh``."""
    st = os.fstat(fh.fileno())
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _parse_header(fh, path) -> VolumeHeader:
    identity = _identity(fh)
    size = identity[2]
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

    dims = _require(header, "dims", path)
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or any(not _is_int(n) or n < 1 for n in dims)
    ):
        raise HeaderError(f"{path}: dims must be three positive integers, got {dims}")
    nx, ny, nz = dims
    spacing = _require(header, "spacing_mm", path)

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
    spacing = _finite_numbers(spacing, "spacing_mm", path)
    z_positions = _finite_numbers(header.get("z_positions_mm"), "z_positions_mm", path)
    label_map = None
    if kind != "ct":
        label_map = _require(header, "label_map", path)
        if not isinstance(label_map, dict):
            raise HeaderError(f"{path}: label_map must be a JSON object, got {label_map!r}")
    try:
        geometry = Geometry(
            tuple(dims), tuple(spacing), tuple(z_positions) if z_positions is not None else None
        )
        if label_map is not None:
            label_map = _checked_label_map(label_map)
    except (ValueError, TypeError, OverflowError) as exc:
        raise HeaderError(f"{path}: header violates volume invariants: {exc}") from exc
    rescale = None
    if kind == "ct":
        rescale = (
            _require_finite(header, "rescale_slope", path),
            _require_finite(header, "rescale_intercept", path),
        )
    return VolumeHeader(
        str(path), kind, dtype, geometry, subject_id, 12 + header_len, rescale, label_map, identity
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
    """The volume of ``values``: the slices of ``head``'s payload that
    ``geometry`` describes, whose codes are all mapped.

    The header's checks are the volume's, so they are not made again.
    """
    if head.label_map is None:
        slope, intercept = head.rescale
        # in native byte order, as the constructor stores it: no copy on a
        # little-endian machine
        return VoxelVolume.on_grid(
            values.astype(np.int16, copy=False), geometry, rescale_slope=slope,
            rescale_intercept=intercept, subject_id=head.subject_id,
        )
    return LabelVolume.on_grid(values, geometry, label_map=head.label_map, subject_id=head.subject_id)


def _spans(lo: int, hi: int, step: int, as_volume: bool) -> list[tuple[int, int, bool]]:
    return [(k, min(k + step, hi), as_volume) for k in range(lo, hi, step)]


def _walk(fh, head: VolumeHeader, z: slice, step: int):
    """The payload of ``head``'s file, read in pieces of whole slices in file order.

    The slices ``z`` come as volumes of ``step`` slices each, with the
    geometry of their slices (``Geometry.slab``). The other slices of a
    label file come as planes, ``chunk_slices`` at a time; those of a CT
    are not read, as every 16-bit value is valid. Each piece is read
    straight into its array and is not kept once it is yielded.

    Each label piece is checked once against the label map
    (``unmapped_codes``). When the map misses a code of a piece, the rest
    of the file is scanned, so that the ``HeaderError`` names every
    unmapped code, as a whole read's does: the pieces before held none.
    """
    label_map, nz, scan = head.label_map, head.geometry.nz, chunk_slices(head)
    pieces = _spans(z.start, z.stop, step, True)
    if label_map is not None:
        pieces = _spans(0, z.start, scan, False) + pieces + _spans(z.stop, nz, scan, False)
    for lo, hi, as_volume in pieces:
        piece = _read_planes(fh, head, lo, hi)
        unmapped = [] if label_map is None else unmapped_codes(piece, label_map)
        if unmapped:
            for k in range(hi, nz, scan):
                unmapped += unmapped_codes(_read_planes(fh, head, k, min(k + scan, nz)), label_map)
            raise HeaderError(
                f"{head.path}: header violates volume invariants: "
                f"codes {sorted(set(unmapped))} present in volume but not in label_map"
            )
        if as_volume:
            piece = _volume(head, piece, head.geometry.slab(slice(lo, hi)))
        yield piece
        del piece  # nothing of a piece stays in this frame while the next is read


def read_in_step(heads, z: slice):
    """The payloads of the files of the headers ``heads``, all of one grid, read side by side.

    Yields ``(lo, pieces)`` in slice order, where ``pieces[i]`` is the
    piece of ``heads[i]``'s file that starts at slice ``lo``, as ``_walk``
    reads it: a label file's every slice comes, the slices ``z`` as
    volumes and the rest as planes; a CT's only the slices ``z``, and
    None stands for it elsewhere. Inside ``z`` a piece holds
    ``chunk_slices`` of the widest payload, outside it ``chunk_slices`` of
    a label file, and no piece is kept here once the next is read.

    No header is parsed again: the grid is ``heads[0]``'s, and every
    header is compared with it before any payload is read. Each file is
    opened anew and must still be the file its header was read from
    (``VolumeHeader.identity``), else a ``HeaderError`` names it. Each
    label piece is checked as ``read_volume`` checks it.
    """
    geometry = heads[0].geometry
    with ExitStack() as stack:
        files = []
        for head in heads:
            require_same_geometry(head.geometry, geometry)
            fh = stack.enter_context(open(head.path, "rb"))
            if _identity(fh) != head.identity:
                raise HeaderError(f"{head.path}: changed since its header was read")
            files.append(fh)
        step = min(map(chunk_slices, heads))
        walks = [stack.enter_context(closing(_walk(fh, head, z, step))) for fh, head in zip(files, heads)]
        labels = [head.label_map is not None for head in heads]
        lo, hi = (0, geometry.nz) if any(labels) else (z.start, z.stop)
        while lo < hi:
            inside = z.start <= lo < z.stop
            pieces = [next(w) if label or inside else None for w, label in zip(walks, labels)]
            yield lo, pieces
            lo += next(len(p) if isinstance(p, np.ndarray) else p.nz for p in pieces if p is not None)
            del pieces  # nothing of a chunk stays in this frame while the next is read


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


def read_cohort_csv(path) -> list[SubjectRecord]:
    """Read demographics rows; blank height parses as absent.

    Expects the header ``subject_id,age_years,sex,race,height_m``. Raises
    on a missing column, non-numeric age/height, or duplicate subject_id.
    """
    records: list[SubjectRecord] = []
    seen: set[str] = set()
    # utf-8-sig: a byte order mark, as Excel's "CSV UTF-8" writes, is not
    # part of the first column's name
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def format_number(x: float) -> str:
    """Render a number with 6 significant digits for CSV output.

    A NaN or infinite value raises ValueError: no CSV cell reads ``nan``.
    """
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if not math.isfinite(x):
        raise ValueError(f"refusing to write the non-finite number {x!r}")
    return f"{x:.6g}"
