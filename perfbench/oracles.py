"""Expected outputs computed with numpy/scipy from the generated arrays.

Nothing here calls bodycomp. The conventions come from the repository
README: HU is float32 ``slope * raw + intercept``, the muscle merge policy
counts muscular fat as muscle, ties in slice area break to the lowest
index, statistics are population form, and CSV numbers carry 6
significant digits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import ndimage

from inputs import INTERCEPT, L3, L4, MF, MUSCLE, SAT, T12, VAT, Subject, read_bcv

CHUNK = 16  # slices per step, to bound the oracle's memory on CT-sized volumes
METRICS = (
    "muscle_density_2d",
    "muscle_density_3d",
    "vat_sat_ratio_2d",
    "vat_sat_ratio_3d",
    "muscle_area_2d",
    "muscle_volume_3d",
    "smi_2d",
)
RESULT_COLUMNS = {
    "muscle_density_2d": "muscle_density_2d_hu",
    "muscle_density_3d": "muscle_density_3d_hu",
    "vat_sat_ratio_2d": "vat_sat_ratio_2d",
    "vat_sat_ratio_3d": "vat_sat_ratio_3d",
    "muscle_area_2d": "muscle_area_2d_cm2",
    "muscle_volume_3d": "muscle_volume_3d_cm3",
    "smi_2d": "smi_2d_cm2_m2",
}
EVAL_LABELS = ("skeletal_muscle", "sat", "vat", "muscular_fat")
EVAL_REGIONS = ("l3", "t12_l4", "all")
DENSITY_RANGE_HU = 179.0  # width of the normal muscle-density range, -29..+150 HU
MERGE_MUSCLE = np.array([0, MUSCLE, SAT, VAT, MUSCLE])  # code -> merged code
_IN_PLANE_8 = np.zeros((3, 3, 3), dtype=bool)
_IN_PLANE_8[1] = True
_SQUARE_5 = np.ones((1, 5, 5), dtype=bool)


# ---- comparisons --------------------------------------------------------


def agrees_6sig(text: str, expected) -> bool:
    """A CSV cell agrees with ``expected`` within its 6-significant-digit rendering."""
    if expected is None:
        return text == ""
    if isinstance(expected, (int, np.integer)):
        return text == str(int(expected))
    try:
        x = float(text)
    except ValueError:
        return False
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 5) if expected else 0.0
    return abs(x - expected) <= half_unit * (1 + 1e-6) + 1e-12


def agrees_full(value, expected) -> bool:
    """A JSON number agrees with ``expected`` up to summation-order rounding."""
    if expected is None or value is None:
        return value is None and expected is None
    if isinstance(expected, (int, np.integer)):
        return value == expected
    return abs(value - expected) <= 1e-9 * abs(expected) + 1e-12


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---- shared per-slice quantities -----------------------------------------


def to_hu(raw: np.ndarray, slope: float) -> np.ndarray:
    hu = np.multiply(raw, np.float32(slope), dtype=np.float32)
    hu += np.float32(INTERCEPT)
    return hu


def largest_slice(vert: np.ndarray, code: int) -> int:
    counts = np.count_nonzero((vert == code).reshape(vert.shape[0], -1), axis=1)
    if not counts.any():
        raise ValueError(f"vertebra code {code} has no voxels")
    return int(np.argmax(counts))


def regions(s: Subject) -> tuple[int, int, int]:
    """(L3 slice, slab low, slab high) by per-slice argmax of each level."""
    l3 = largest_slice(s.vert, L3)
    ends = sorted((largest_slice(s.vert, T12), largest_slice(s.vert, L4)))
    return l3, ends[0], ends[1]


def thickness_mm(s: Subject) -> np.ndarray:
    """Per-slice thickness: sz, or midpoint-to-midpoint steps of the z positions."""
    nz = s.raw.shape[0]
    if s.z_positions is None:
        return np.full(nz, s.spacing[2])
    steps = np.abs(np.diff(np.asarray(s.z_positions)))
    return np.concatenate([steps[:1], (steps[:-1] + steps[1:]) / 2.0, steps[-1:]])


def muscle_hu_sums(codes: np.ndarray, raw: np.ndarray, slope: float, z0: int, z1: int):
    """Per-slice merged-muscle count and float64 sum of float32 HU over [z0, z1)."""
    counts, sums = [], []
    for a in range(z0, z1, CHUNK):
        b = min(a + CHUNK, z1)
        muscle = (codes[a:b] == MUSCLE) | (codes[a:b] == MF)
        hu = np.where(muscle, to_hu(raw[a:b], slope), np.float32(0))
        counts.append(np.count_nonzero(muscle.reshape(b - a, -1), axis=1))
        sums.append(hu.reshape(b - a, -1).sum(axis=1, dtype=np.float64))
    return np.concatenate(counts), np.concatenate(sums)


def joint_table(gt: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """``[nz, 5, 5]`` counts of (ground-truth code, predicted code) per slice."""
    nz = gt.shape[0]
    out = np.empty((nz, 25), dtype=np.int64)
    for k in range(nz):
        pair = gt[k] * np.uint8(5) + pred[k]
        out[k] = np.bincount(pair.ravel(), minlength=25)
    return out.reshape(nz, 5, 5)


# ---- measure -------------------------------------------------------------


def measure(s: Subject, height_m: float | None) -> dict:
    """Expected ``<id>.json`` fields of one subject under the muscle policy."""
    l3, lo, hi = regions(s)
    z0, z1 = min(lo, l3), max(hi, l3) + 1
    n_muscle, hu_sum = muscle_hu_sums(s.tissue, s.raw, s.slope, z0, z1)
    part = s.tissue[z0:z1].reshape(z1 - z0, -1)
    n_sat = np.count_nonzero(part == SAT, axis=1)
    n_vat = np.count_nonzero(part == VAT, axis=1)
    sx, sy, sz = s.spacing
    pixel_cm2 = sx * sy / 100.0
    slab = slice(lo - z0, hi - z0 + 1)
    k = l3 - z0
    if s.z_positions is None:
        voxel_cm3 = sx * sy * sz / 1000.0

        def volume(counts):
            return int(counts[slab].sum()) * voxel_cm3

    else:
        th = thickness_mm(s)[lo : hi + 1]

        def volume(counts):
            return float(np.sum(counts[slab] * th) * sx * sy / 1000.0)

    area = int(n_muscle[k]) * pixel_cm2
    return {
        "subject_id": s.sid,
        "policy": "muscle",
        "region_2d": l3,
        "region_3d": [lo, hi],
        "muscle_density_2d": float(hu_sum[k] / n_muscle[k]),
        "muscle_density_3d": float(hu_sum[slab].sum() / n_muscle[slab].sum()),
        "vat_sat_ratio_2d": (int(n_vat[k]) * pixel_cm2) / (int(n_sat[k]) * pixel_cm2),
        "vat_sat_ratio_3d": volume(n_vat) / volume(n_sat),
        "muscle_area_2d": area,
        "muscle_volume_3d": volume(n_muscle),
        "smi_2d": area / (height_m * height_m) if height_m is not None else None,
    }


def check_measure(out_dir: Path, expected: dict[str, dict]) -> set[str]:
    """Subject ids whose ``results.csv`` row or ``<id>.json`` disagree with the oracle."""
    bad = set()
    rows = {r["subject_id"]: r for r in read_csv(out_dir / "results.csv")}
    bad |= set(rows) ^ set(expected)
    for sid, exp in expected.items():
        row = rows.get(sid)
        if row is None:
            continue
        cells = {
            "policy": row["policy"] == exp["policy"],
            "region_2d": row["region_2d"] == str(exp["region_2d"]),
            "region_3d": [row["region_3d_lo"], row["region_3d_hi"]] == [str(z) for z in exp["region_3d"]],
        }
        cells.update({m: agrees_6sig(row[RESULT_COLUMNS[m]], exp[m]) for m in METRICS})
        doc_path = out_dir / f"{sid}.json"
        doc = json.loads(doc_path.read_text(encoding="utf-8")) if doc_path.exists() else {}
        cells["json"] = set(doc) == set(exp) and all(
            agrees_full(doc[m], exp[m]) if m in METRICS else doc[m] == exp[m] for m in exp
        )
        if not all(cells.values()):
            bad.add(sid)
    return bad


# ---- evaluate --------------------------------------------------------------


def evaluate(s: Subject, pred: np.ndarray) -> dict:
    """Expected ``eval.json`` of one gt/pred pair with all three regions."""
    nz = s.tissue.shape[0]
    l3, lo, hi = regions(s)
    table = joint_table(s.tissue, pred)
    onehot = np.eye(5, dtype=np.int64)[MERGE_MUSCLE]  # [code, merged code]
    merged = np.einsum("kgp,ga,pb->kab", table, onehot, onehot)
    sx, sy, sz = s.spacing
    pixel_cm2, voxel_cm3 = sx * sy / 100.0, sx * sy * sz / 1000.0
    spans = {"l3": (l3, l3 + 1), "t12_l4": (lo, hi + 1), "all": (0, nz)}

    rows = []
    for label in EVAL_LABELS:
        code = EVAL_LABELS.index(label) + 1
        t = table if label == "muscular_fat" else merged
        n_gt, n_pred, n_both = t[:, code, :].sum(1), t[:, :, code].sum(1), t[:, code, code]
        for region in EVAL_REGIONS:
            a, b = spans[region]
            g, p, i = int(n_gt[a:b].sum()), int(n_pred[a:b].sum()), int(n_both[a:b].sum())
            denom = n_gt[a:b] + n_pred[a:b]
            per_slice = np.where(denom == 0, 1.0, 2.0 * n_both[a:b] / np.maximum(denom, 1))
            unit = pixel_cm2 if region == "l3" else voxel_cm3
            truth, predicted = g * unit, p * unit
            skipped = truth == 0 and predicted != 0
            rel = 0.0 if truth == 0 else abs(truth - predicted) / abs(truth)
            rows.append(
                {
                    "label": label,
                    "region": region,
                    "cases": 1,
                    "dice_mean": 1.0 if g + p == 0 else 2.0 * i / (g + p),
                    "dice_sd": 0.0,
                    "dice_slice_mean": float(per_slice.mean()),
                    "dice_slice_sd": float(per_slice.std()),
                    "degenerate_cases": int(g + p == 0),
                    "degenerate_slices": int(np.count_nonzero(denom == 0)),
                    "mrae": None if skipped else rel,
                    "mrae_sd": None if skipped else 0.0,
                    "mrae_skipped": int(skipped),
                    "r_squared": None,
                }
            )

    # measurement errors of the prediction against the ground truth
    z0, z1 = min(lo, l3), max(hi, l3) + 1
    slab, k = slice(lo - z0, hi - z0 + 1), l3 - z0
    sums = {}
    for side, codes in (("gt", s.tissue), ("pred", pred)):
        n, total = muscle_hu_sums(codes, s.raw, s.slope, z0, z1)
        sums[side] = {
            "2d": (int(n[k]), float(total[k])),
            "3d": (int(n[slab].sum()), float(total[slab].sum())),
        }
    quantities = {}
    for side, other_axis in (("gt", 2), ("pred", 1)):
        counts = merged.sum(axis=other_axis)  # [nz, merged code]
        for dim, (a, b, unit) in (("2d", (l3, l3 + 1, pixel_cm2)), ("3d", (lo, hi + 1, voxel_cm3))):
            c = counts[a:b].sum(0)
            quantities[side, dim] = {m: int(c[m]) * unit for m in (MUSCLE, SAT, VAT)}

    def pct(ref, other):
        return None if ref is None or other is None or ref == 0 else abs(other - ref) / abs(ref) * 100.0

    def ratio(q):
        return None if q[SAT] == 0 else q[VAT] / q[SAT]

    errors = {}
    for dim in ("2d", "3d"):
        (ng, sg), (npred, sp) = sums["gt"][dim], sums["pred"][dim]
        errors[f"muscle_density_{dim}"] = (
            None if ng == 0 or npred == 0 else abs(sp / npred - sg / ng) / DENSITY_RANGE_HU * 100.0
        )
        errors[f"vat_sat_ratio_{dim}"] = pct(ratio(quantities["gt", dim]), ratio(quantities["pred", dim]))
    errors["muscle_area_2d"] = pct(quantities["gt", "2d"][MUSCLE], quantities["pred", "2d"][MUSCLE])
    errors["muscle_volume_3d"] = pct(quantities["gt", "3d"][MUSCLE], quantities["pred", "3d"][MUSCLE])
    errors["smi_2d"] = errors["muscle_area_2d"]  # height cancels
    return {
        "case_count": 1,
        "policy": "muscle",
        "region_2d": l3,
        "region_3d": [lo, hi],
        "rows": rows,
        "metric_errors": [
            {"metric": m, "mean_pct": errors[m], "sd_pct": 0.0, "cases": 1}
            for m in METRICS
            if errors[m] is not None
        ],
    }


def check_evaluate(out_dir: Path, expected: dict) -> bool:
    doc = json.loads((out_dir / "eval.json").read_text(encoding="utf-8"))
    rows = read_csv(out_dir / "eval.csv")
    if [(r["label"], r["region"]) for r in rows] != [(r["label"], r["region"]) for r in expected["rows"]]:
        return False
    for row, exp in zip(rows, expected["rows"]):
        if not all(agrees_6sig(row[f], v) for f, v in exp.items() if f not in ("label", "region")):
            return False
    if [m["metric"] for m in doc["metric_errors"]] != [m["metric"] for m in expected["metric_errors"]]:
        return False
    for got, exp in zip(doc["metric_errors"], expected["metric_errors"]):
        if not all(agrees_full(got[f], v) for f, v in exp.items() if f != "metric"):
            return False
    for got, exp in zip(doc["rows"], expected["rows"]):
        if set(got) != set(exp) or not all(
            got[f] == v if f in ("label", "region") else agrees_full(got[f], v) for f, v in exp.items()
        ):
            return False
    return all(doc[f] == expected[f] for f in ("case_count", "policy", "region_2d", "region_3d"))


# ---- postprocess -----------------------------------------------------------


def sat_skin(s: Subject) -> str:
    """sha256 of the expected sat-skin payload.

    A background voxel becomes SAT when it lies in the (1,5,5) dilation
    of SAT and its HU is above -800.
    """
    digest = hashlib.sha256()
    for a in range(0, s.tissue.shape[0], CHUNK):
        codes = s.tissue[a : a + CHUNK]
        grown = ndimage.binary_dilation(codes == SAT, structure=_SQUARE_5)
        add = grown & (codes == 0) & (to_hu(s.raw[a : a + CHUNK], s.slope) > -800.0)
        out = codes.copy()
        out[add] = SAT
        digest.update(out.tobytes())
    return digest.hexdigest()


def mf_filter(s: Subject, roi: np.ndarray) -> str:
    """sha256 of the expected mf-filter payload.

    Candidates are ROI voxels with HU in [-220, -50]; 8-connected in-plane
    components of at least 7 voxels are kept.
    """
    digest = hashlib.sha256()
    for a in range(0, s.tissue.shape[0], CHUNK):
        hu = to_hu(s.raw[a : a + CHUNK], s.slope)
        candidates = (roi[a : a + CHUNK] != 0) & (hu >= -220.0) & (hu <= -50.0)
        labels, _ = ndimage.label(candidates, structure=_IN_PLANE_8)
        keep = np.bincount(labels.ravel()) >= 7
        keep[0] = False
        digest.update(keep[labels].astype(np.uint8).tobytes())
    return digest.hexdigest()


def label_header(s: Subject, label_map: dict) -> dict:
    """Header fields a label `.bcv` derived from ``s`` must carry."""
    nz, ny, nx = s.tissue.shape
    return {
        "dims": [nx, ny, nz],
        "spacing_mm": list(s.spacing),
        "kind": "tissue_labels",
        "dtype": "u8",
        "subject_id": s.sid,
        "z_positions_mm": s.z_positions,
        "label_map": {str(c): n for c, n in label_map.items()},
    }


def check_label_output(path: Path, header: dict, digest: str) -> bool:
    got, payload = read_bcv(path)
    return all(got.get(k) == v for k, v in header.items()) and hashlib.sha256(payload).hexdigest() == digest


# ---- cohort ----------------------------------------------------------------


def check_cohort(out_dir: Path, results: dict[str, dict], demographics: dict[str, dict]) -> bool:
    """``group_stats.csv`` and ``correlations.csv`` against the measured oracle values.

    Ages are whole years, so every age-bin edge (a midpoint between two
    distinct ages) prints exactly with one decimal and no age sits on one.
    """
    ids = sorted(results)

    def members(group: str) -> list[str]:
        kind, _, value = group.partition(" ")
        if kind == "sex":
            return [i for i in ids if demographics[i]["sex"] == value]
        if kind == "race":
            race = "" if value == "(unknown)" else value
            return [i for i in ids if demographics[i]["race"] == race]
        lo, hi = (float(v) for v in value.split("-"))
        return [i for i in ids if lo <= demographics[i]["age_years"] <= hi]

    stats = read_csv(out_dir / "group_stats.csv")
    groups = list(dict.fromkeys(r["group"] for r in stats))
    for prefix, field in (("sex ", "sex"), ("race ", "race"), ("age", None)):
        covered = [i for g in groups if g.startswith(prefix) for i in members(g)]
        if sorted(covered) != ids:  # each grouping partitions the subjects
            return False
        if field and len([g for g in groups if g.startswith(prefix)]) != len(
            {demographics[i][field] for i in ids}
        ):
            return False
    expected_rows = []
    for group in groups:
        who = members(group)
        for m in METRICS:
            vals = [results[i][m] for i in who if results[i][m] is not None]
            if vals:
                arr = np.asarray(vals)
                expected_rows.append((group, m, len(vals), float(arr.mean()), float(arr.std())))
    got_rows = [(r["group"], r["metric"], r["count"], r["mean"], r["sd"]) for r in stats]
    if [r[:2] for r in got_rows] != [r[:2] for r in expected_rows]:
        return False
    for got, exp in zip(got_rows, expected_rows):
        if not all(agrees_6sig(g, e) for g, e in zip(got[2:], exp[2:])):
            return False

    corr = read_csv(out_dir / "correlations.csv")
    pairs = [(a, b) for i, a in enumerate(METRICS) for b in METRICS[i + 1 :]]
    if [(r["metric_a"], r["metric_b"]) for r in corr] != pairs:
        return False
    for row, (a, b) in zip(corr, pairs):
        both = [(results[i][a], results[i][b]) for i in ids if None not in (results[i][a], results[i][b])]
        x, y = np.asarray(both).T
        dx, dy = x - x.mean(), y - y.mean()
        sxx, syy = np.mean(dx * dx), np.mean(dy * dy)
        r = None if sxx == 0 or syy == 0 else float(np.mean(dx * dy) / math.sqrt(sxx * syy))
        if not (agrees_6sig(row["r"], r) and row["n"] == str(len(both))):
            return False
    return True
