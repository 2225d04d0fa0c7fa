"""Seeded synthetic inputs, built on ``bodycomp.build_phantom``.

The stock phantom repeats one slice along z. Every generated subject gets
z-varying CT noise, a per-slice gap between SAT and the skin rim, and
per-slice muscular-fat clusters of 1 to 16 pixels, so no two slices are
alike and a per-slice memo cannot pass for a speed-up. Files are written
in the `.bcv` layout that the repository README specifies, by this module
and not by ``bodycomp.io``, so the set-up time does not move with the
program's writer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from bodycomp import build_phantom

INTERCEPT = -1024.0
NOISE_HU = 12.0
FAT_HU = -75.0
MUSCLE, SAT, VAT, MF = 1, 2, 3, 4
T12, L3, L4 = 1, 2, 3

TISSUE_MAP = {0: "background", 1: "skeletal_muscle", 2: "sat", 3: "vat", 4: "muscular_fat"}
VERT_MAP = {0: "background", 1: "vertebrae_T12", 2: "vertebrae_L3", 3: "vertebrae_L4"}
ROI_MAP = {0: "background", 1: "skeletal_muscle"}
MF_MAP = {0: "background", 1: "muscular_fat"}

# phantom geometry, as fractions of half the in-plane size (see
# bodycomp.phantom): the body edge and the outer edges of muscle and VAT
BODY_R, MUSCLE_R, VAT_R = 0.94, 0.70, 0.30


@dataclass
class Subject:
    """One generated subject: raw CT counts and label volumes, ``[z, y, x]``."""

    sid: str
    raw: np.ndarray
    tissue: np.ndarray
    vert: np.ndarray
    slope: float
    spacing: tuple[float, float, float]
    z_positions: list[float] | None
    radius: np.ndarray  # in-plane distance from the body centre, px
    scale: float  # half the in-plane size, px


def _writable(arr: np.ndarray) -> np.ndarray:
    # the phantom's arrays are frozen but owned by nobody else once the
    # phantom is dropped; reuse them instead of copying CT-sized volumes
    try:
        arr.setflags(write=True)
        return arr
    except ValueError:
        return arr.copy()


def paired_sizes(rng, n: int, nz_range, frac_range, jitter: int = 16) -> list[tuple[int, float]]:
    """``n`` (even) seeded (nz, slab fraction) cases with nearly seed-independent totals.

    Cases come in pairs: one within ``jitter`` slices of the top of
    ``nz_range``, its mirror within ``jitter`` of the bottom. Each pair's
    slab sizes are mirrored about the middle fraction of the middle nz,
    with each fraction kept inside ``frac_range``. The inputs differ from
    seed to seed, but the total slice and slab counts of a run do not, nor
    does the largest subject by more than ``jitter`` slices, so
    throughput and peak memory compare across seeds.
    """
    (nz_lo, nz_hi), (f_lo, f_hi) = nz_range, frac_range
    mid_slab = (f_lo + f_hi) / 2 * (nz_lo + nz_hi) / 2
    out = []
    for _ in range(n // 2):
        j = int(rng.integers(0, jitter + 1))
        a, b = nz_hi - j, nz_lo + j
        g_lo = max(f_lo * a - mid_slab, mid_slab - f_hi * b)
        g_hi = min(f_hi * a - mid_slab, mid_slab - f_lo * b)
        g = rng.uniform(g_lo, g_hi)
        out += [(a, (mid_slab + g) / a), (b, (mid_slab - g) / b)]
    return out


def make_subject(
    rng: np.random.Generator,
    sid: str,
    shape: tuple[int, int, int],
    slab_frac: float,
    spacing: tuple[float, float, float],
    slope: float = 1.0,
    nonuniform_z: bool = False,
    clusters_per_slice: int = 10,
) -> Subject:
    """Phantom with seeded noise, SAT rim gap, muscular-fat clusters and T12–L4 slab.

    The T12–L4 slab covers ``slab_frac`` of the slices (at least 11).
    """
    nx, ny, nz = shape
    slab = min(max(int(round(slab_frac * nz)), 11), nz - 6)
    lo = int(rng.integers(3, nz - 2 - slab))
    hi = lo + slab - 1
    l3 = int(rng.integers(lo + 5, hi - 4))
    ph = build_phantom(
        nx=nx,
        ny=ny,
        nz=nz,
        spacing_mm=spacing,
        rescale_slope=slope,
        rescale_intercept=INTERCEPT,
        subject_id=sid,
        vertebra_slices=(hi, l3, lo),
    )
    raw = _writable(ph.ct.values)
    tissue = _writable(ph.tissue.codes)
    vert = _writable(ph.vertebrae.codes)
    del ph

    yy, xx = np.mgrid[0:ny, 0:nx]
    radius = np.hypot(xx - (nx - 1) / 2.0, yy - (ny - 1) / 2.0)
    scale = min(nx, ny) / 2.0
    template = tissue[0].copy()  # slice 0 carries no vertebra marker

    # SAT stops 1-3 px short of the skin rim; the CT keeps soft-tissue HU
    # there, so sat-skin dilation has pixels to add
    rim = [None] + [(template == SAT) & (radius > BODY_R * scale - g) for g in (1, 2, 3)]
    for k, gap in enumerate(rng.integers(1, 4, nz)):
        tissue[k][rim[gap]] = 0

    # muscular-fat clusters inside the muscle ring, on both sides of the
    # 7-pixel muscular-fat filter threshold
    ring = (template == MUSCLE) | (template == MF)
    ring_yx = np.argwhere(ring)
    fat_raw = np.int16(round((FAT_HU - INTERCEPT) / slope))
    picks = ring_yx[rng.integers(0, len(ring_yx), (nz, clusters_per_slice))]
    sizes = rng.integers(1, 5, (nz, clusters_per_slice, 2))
    for k in range(nz):
        t_k, r_k = tissue[k], raw[k]
        for (y, x), (h, w) in zip(picks[k], sizes[k]):
            inside = ring[y : y + h, x : x + w]
            t_k[y : y + h, x : x + w][inside] = MF
            r_k[y : y + h, x : x + w][inside] = fat_raw

    # z-varying noise: each slice takes a shifted window of a small bank
    pad = 64
    bank = np.rint(rng.normal(0.0, NOISE_HU / slope, (4, ny + pad, nx + pad))).astype(np.int16)
    which = rng.integers(0, len(bank), nz)
    oy, ox = rng.integers(0, pad, (2, nz))
    for k in range(nz):
        raw[k] += bank[which[k], oy[k] : oy[k] + ny, ox[k] : ox[k] + nx]

    z_positions = None
    if nonuniform_z:
        steps = spacing[2] * rng.uniform(0.6, 1.4, nz - 1)
        z_positions = [0.0] + np.round(np.cumsum(steps), 4).tolist()
    return Subject(sid, raw, tissue, vert, slope, spacing, z_positions, radius, scale)


def perturb_prediction(rng: np.random.Generator, s: Subject) -> np.ndarray:
    """Prediction = ground truth with seeded per-slice boundary changes.

    Per slice, the outer muscle edge and the VAT edge move by -2..+2 px,
    muscular fat is folded into muscle on about a third of the slices,
    and two slices are left empty so that Dice meets an empty side.
    """
    nz = s.tissue.shape[0]
    pred = s.tissue.copy()
    r, sc = s.radius, s.scale

    def band(edge, shift):
        if shift > 0:
            return (r > edge * sc) & (r <= edge * sc + shift)
        return (r > edge * sc + shift) & (r <= edge * sc)

    shifts = rng.integers(-2, 3, (nz, 2))
    for k in range(nz):
        p_k = pred[k]
        for (edge, code), shift in zip(((MUSCLE_R, MUSCLE), (VAT_R, VAT)), shifts[k]):
            if shift > 0:
                grow = band(edge, shift) & (p_k == 0)
                p_k[grow] = code
            elif shift < 0:
                shrink = band(edge, shift) & (p_k == code)
                p_k[shrink] = 0
    folded = rng.random(nz) < 0.33
    pred[folded] = np.where(pred[folded] == MF, MUSCLE, pred[folded])
    for k in rng.choice(np.arange(3, nz - 3), 2, replace=False):
        pred[k] = 0
    return pred


def empty_end_slices(rng: np.random.Generator, s: Subject) -> None:
    """Blank the tissue labels of 1-2 slices at each end of the volume.

    Both ground truth and prediction are then empty there, so evaluation
    meets degenerate (both-empty) Dice.
    """
    head, tail = rng.integers(1, 3, 2)
    s.tissue[:head] = 0
    s.tissue[-tail:] = 0


def roi_mask(s: Subject) -> np.ndarray:
    """The muscle compartment (muscle or muscular fat) as a 0/1 ROI."""
    return ((s.tissue == MUSCLE) | (s.tissue == MF)).astype(np.uint8)


def write_bcv(path, arr: np.ndarray, s: Subject, kind: str, label_map=None) -> int:
    """Write ``arr`` with ``s``'s geometry as a `.bcv` file; returns its size."""
    nz, ny, nx = arr.shape
    header = {
        "dims": [nx, ny, nz],
        "spacing_mm": list(s.spacing),
        "kind": kind,
        "subject_id": s.sid,
    }
    if s.z_positions is not None:
        header["z_positions_mm"] = s.z_positions
    if kind == "ct":
        header["dtype"] = "i16"
        header["rescale_slope"] = s.slope
        header["rescale_intercept"] = INTERCEPT
        arr = np.ascontiguousarray(arr, dtype="<i2")
    else:
        header["dtype"] = "u8"
        header["label_map"] = {str(c): n for c, n in label_map.items()}
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(b"BCV1")
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        arr.tofile(fh)
    return 12 + len(head) + arr.nbytes


def read_bcv(path) -> tuple[dict, np.ndarray]:
    """Header and ``[z, y, x]`` payload of a `.bcv` file, without bodycomp."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"BCV1":
            raise ValueError(f"{path}: not a BCV1 file")
        (n,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(n))
        dtype = {"i16": "<i2", "u8": "u1"}[header["dtype"]]
        nx, ny, nz = header["dims"]
        payload = np.fromfile(fh, dtype=dtype)
    if payload.size != nx * ny * nz:
        raise ValueError(f"{path}: payload has {payload.size} voxels, dims imply {nx * ny * nz}")
    return header, payload.reshape(nz, ny, nx)
