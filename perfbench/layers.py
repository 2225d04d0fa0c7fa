"""Per-layer metrics from the spans of traced CLI commands.

Layers are the ``bodycomp`` modules. A timing is reported as its median
(``.p50``), its highest percentile with at least ten samples beyond it
(``.tail``: p99.9, p99 or p90, else the median) and its sample count
(``.n``). Self time is a span's duration minus its direct children's.
Counts are per traced pass, and a pass repeats identical work, so they are
exact. Bytes moved are computed from voxel counts, never measured.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

# timing metric -> traced stage
TIMED = {
    "io.read_s": "io.read_volume",
    "io.write_s": "io.write_volume",
    "model.to_hu_s": "model.to_hu",
    "model.merge_s": "model.apply_merge_policy",
    "regions.largest_label_slice_s": "regions.largest_label_slice",
    "measures.measure_subject_s": "measures.measure_subject",
    "measures.muscle_density_s": "measures.muscle_density",
    "measures.vat_sat_ratio_s": "measures.vat_sat_ratio",
    "measures.tissue_volume_3d_s": "measures.tissue_volume_3d",
    "evaluation.evaluate_case_s": "evaluation.evaluate_case",
    "evaluation.dice_s": "evaluation.dice",
    "evaluation.aggregate_s": "evaluation.aggregate_cases",
    "postprocess.sat_skin_s": "postprocess.dilate_sat_to_skin",
    "postprocess.mf_filter_s": "postprocess.muscular_fat_candidates",
    "cohort.group_stats_s": "cohort.group_stats",
    "cohort.correlation_matrix_s": "cohort.correlation_matrix",
}
SELF_TIMED = {
    "measures.measure_subject_self_s": "measures.measure_subject",
    "evaluation.evaluate_case_self_s": "evaluation.evaluate_case",
}
CLI_TIMED = ("cli.import_s", "cli.queue_wait_s", "cli.output_write_s")
LAYERS = ("cli", "io", "model", "regions", "measures", "evaluation", "postprocess", "cohort")

# minimal traffic per voxel: to_hu reads int16 and writes float32, the
# merge reads and writes one label byte
TO_HU_BYTES_PER_VOXEL = 6
MERGE_BYTES_PER_VOXEL = 2

# name -> unit of every per-layer metric, in the order they are reported
UNITS: dict[str, str] = {}
for _name in (*CLI_TIMED, *TIMED, *SELF_TIMED):
    UNITS.update({f"{_name}.p50": "s", f"{_name}.tail": "s", f"{_name}.n": "count"})
UNITS.update(
    {
        "cli.worker_busy_frac": "1",
        "io.read_calls": "count",
        "io.read_bytes": "bytes",
        "io.read_GBps": "GB/s",
        "io.write_bytes": "bytes",
        "model.to_hu_voxels": "count",
        "model.merge_calls": "count",
        "model.merge_voxels": "count",
        "model.binary_calls": "count",
        "model.binary_voxels": "count",
        "model.to_hu_bw_frac": "1",
        "model.merge_bw_frac": "1",
        "regions.largest_label_slice_calls": "count",
        "measures.voxels_touched_per_slab_voxel": "1",
        "evaluation.dice_calls": "count",
        "evaluation.metric_errors_none": "count",
        "postprocess.sat_skin_mvox_per_s": "Mvox/s",
        "postprocess.sat_added_voxels": "count",
        "postprocess.mf_kept_voxels": "count",
        **{f"{layer}.maxrss_step_mb": "MB" for layer in LAYERS},
        "machine.copy_GBps": "GB/s",
        "bench.trace_overhead_frac": "1",
    }
)


def summarize(samples) -> tuple[float, float, int]:
    """(median, highest percentile with >= 10 samples beyond it, count)."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0, 0
    arr = np.asarray(samples, dtype=float)
    tail_q = next((q for q in (99.9, 99.0, 90.0) if n * (1 - q / 100) >= 10), 50.0)
    return float(np.percentile(arr, 50)), float(np.percentile(arr, tail_q)), n


class Span:
    __slots__ = ("stage", "case", "thread", "id", "parent", "t0", "t1", "rss0", "rss1", "extra")

    def __init__(self, row):
        for slot, value in zip(self.__slots__, row):
            setattr(self, slot, value)
        self.extra = self.extra or {}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def by_stage_of(spans, stage):
    return [s for s in spans if s.stage == stage]


def per_layer(commands, passes: int, import_s, copy_gbps: float, overhead: float) -> dict:
    """Per-layer metrics of ``passes`` traced passes.

    ``commands`` holds one ``(argv, spans)`` per traced CLI command.
    """
    by_stage = defaultdict(list)
    timings = defaultdict(list, {"cli.import_s": list(import_s)})
    step = defaultdict(float)
    busy = capacity = touched = slab = 0.0
    for argv, rows in commands:
        spans = [Span(r) for r in rows]
        by_id = {s.id: s for s in spans}
        main = next((s for s in spans if s.stage == "cli.main"), None)
        for s in spans:  # worker-thread spans were caused by the command
            if main is not None and s.parent == 0 and s is not main:
                s.parent = main.id
        child_time = defaultdict(float)
        for s in spans:
            by_stage[s.stage].append(s)
            if s.parent in by_id:
                child_time[s.parent] += s.dur
        for name, stage in SELF_TIMED.items():
            timings[name] += [s.dur - child_time[s.id] for s in by_stage_of(spans, stage)]
        for s in spans:  # memory growth of a layer's outermost spans
            layer = s.stage.split(".")[0]
            outer, p = True, by_id.get(s.parent)
            while p is not None:
                outer = outer and p.stage.split(".")[0] != layer
                p = by_id.get(p.parent)
            if outer:
                step[layer] += (s.rss1 - s.rss0) / 1024.0

        if main is None or not argv or argv[0] != "measure":
            continue
        jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
        first_read = {}
        for s in by_stage_of(spans, "io.read_volume"):
            first_read[s.case] = min(first_read.get(s.case, s.t0), s.t0)
        timings["cli.queue_wait_s"] += [t - main.t0 for t in first_read.values()]
        measured = by_stage_of(spans, "measures.measure_subject")
        if measured:
            timings["cli.output_write_s"].append(main.t1 - max(s.t1 for s in measured))
        busy += sum(s.dur for s in by_stage_of(spans, "cli.subject"))
        capacity += main.dur * jobs
        for s in by_stage_of(spans, "model.to_hu") + by_stage_of(spans, "model.apply_merge_policy"):
            touched += s.extra.get("voxels", 0)
        for s in measured:
            lo, hi = s.extra.get("region_3d", (0, -1))
            extra_slice = not lo <= s.extra.get("region_2d", lo) <= hi
            slab += (hi - lo + 1 + extra_slice) * s.extra.get("plane", 0)

    def stage_sum(stage, key=None):
        spans = by_stage[stage]
        return sum(s.extra.get(key, 0) if key else s.dur for s in spans)

    for name, stage in TIMED.items():
        timings[name] += [s.dur for s in by_stage[stage]]
    out = {}
    for name in (*CLI_TIMED, *TIMED, *SELF_TIMED):
        out[f"{name}.p50"], out[f"{name}.tail"], out[f"{name}.n"] = summarize(timings[name])

    per_pass = 1.0 / max(passes, 1)
    to_hu_s, merge_s, read_s = stage_sum("model.to_hu"), stage_sum("model.apply_merge_policy"), stage_sum("io.read_volume")
    to_hu_vox, merge_vox = stage_sum("model.to_hu", "voxels"), stage_sum("model.apply_merge_policy", "voxels")
    sat_s = stage_sum("postprocess.dilate_sat_to_skin")

    def ratio(a, b):
        return a / b if b else 0.0

    out.update(
        {
            "cli.worker_busy_frac": ratio(busy, capacity),
            "io.read_calls": len(by_stage["io.read_volume"]) * per_pass,
            "io.read_bytes": stage_sum("io.read_volume", "bytes") * per_pass,
            "io.read_GBps": ratio(stage_sum("io.read_volume", "bytes"), read_s) / 1e9,
            "io.write_bytes": stage_sum("io.write_volume", "bytes") * per_pass,
            "model.to_hu_voxels": to_hu_vox * per_pass,
            "model.merge_calls": len(by_stage["model.apply_merge_policy"]) * per_pass,
            "model.merge_voxels": merge_vox * per_pass,
            "model.binary_calls": len(by_stage["model.LabelVolume.binary"]) * per_pass,
            "model.binary_voxels": stage_sum("model.LabelVolume.binary", "voxels") * per_pass,
            "model.to_hu_bw_frac": ratio(TO_HU_BYTES_PER_VOXEL * to_hu_vox, to_hu_s) / 1e9 / copy_gbps,
            "model.merge_bw_frac": ratio(MERGE_BYTES_PER_VOXEL * merge_vox, merge_s) / 1e9 / copy_gbps,
            "regions.largest_label_slice_calls": len(by_stage["regions.largest_label_slice"]) * per_pass,
            "measures.voxels_touched_per_slab_voxel": ratio(touched, slab),
            "evaluation.dice_calls": len(by_stage["evaluation.dice"]) * per_pass,
            "evaluation.metric_errors_none": stage_sum("evaluation.evaluate_case", "metric_errors_none") * per_pass,
            "postprocess.sat_skin_mvox_per_s": ratio(stage_sum("postprocess.dilate_sat_to_skin", "voxels"), sat_s) / 1e6,
            "postprocess.sat_added_voxels": stage_sum("postprocess.dilate_sat_to_skin", "added") * per_pass,
            "postprocess.mf_kept_voxels": stage_sum("postprocess.muscular_fat_candidates", "kept") * per_pass,
            **{f"{layer}.maxrss_step_mb": step[layer] * per_pass for layer in LAYERS},
            "machine.copy_GBps": copy_gbps,
            "bench.trace_overhead_frac": overhead,
        }
    )
    return out
