"""CT body composition quantification from segmentation masks.

Measures muscle density, VAT/SAT ratio, muscle area/volume, and SMI on
vertebra-defined regions (L3 slice for 2D, T12-L4 range for 3D), applies
the muscular-fat merge policy before measurement, post-processes masks
(SAT-skin dilation, muscular-fat filtering), and evaluates predicted
masks against ground truth with Dice/MRAE/R², plus demographic cohort
reports with Pearson correlations.

Importing the package loads nothing else, not even numpy: each public
name is imported from its module on first access (PEP 562), so a command
that never evaluates or builds a phantom never compiles those modules.
``_HOMES`` maps every public name to the module that defines it, and
``__all__`` is its keys.
"""

from importlib import import_module

_HOMES = {
    **dict.fromkeys(
        (
            "AgeBinning",
            "CorrelationEntry",
            "GroupStat",
            "age_bins",
            "correlation_matrix",
            "group_stats",
            "pearson_r",
        ),
        "cohort",
    ),
    **dict.fromkeys(
        (
            "BadMagicError",
            "BodycompError",
            "CohortError",
            "ConstantInputError",
            "EmptyRegionError",
            "GeometryMismatchError",
            "HeaderError",
            "LabelVocabularyError",
            "NonFiniteHUError",
            "TruncatedPayloadError",
            "UndefinedRatioError",
            "UndefinedSMIError",
            "UnitStateError",
            "UnknownDtypeError",
            "UnknownKindError",
            "VertebraNotFoundError",
            "VolumeFormatError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "CaseEvaluation",
            "DiceResult",
            "EvalReport",
            "EvalRow",
            "MetricErrorRow",
            "MraeResult",
            "MUSCLE_DENSITY_RANGE_HU",
            "aggregate_cases",
            "dice",
            "evaluate_case",
            "evaluate_masks",
            "metric_pct_difference",
            "mrae",
            "muscle_density_error_pct",
            "r_squared",
        ),
        "evaluation",
    ),
    **dict.fromkeys(
        ("VolumeHeader", "read_cohort_csv", "read_header", "read_volume", "write_volume"),
        "io",
    ),
    **dict.fromkeys(
        (
            "measure_subject",
            "muscle_density",
            "smi",
            "tissue_area_2d",
            "tissue_volume_3d",
            "vat_sat_ratio",
        ),
        "measures",
    ),
    **dict.fromkeys(
        (
            "BACKGROUND",
            "BodyCompResult",
            "Geometry",
            "LabelVolume",
            "METRIC_FIELDS",
            "MUSCULAR_FAT",
            "MergePolicy",
            "SAT",
            "SKELETAL_MUSCLE",
            "Sex",
            "SubjectRecord",
            "TISSUE_NAMES",
            "UnitState",
            "VAT",
            "VoxelVolume",
            "apply_merge_policy",
            "default_tissue_label_map",
            "to_hu",
            "vertebra_label",
        ),
        "model",
    ),
    **dict.fromkeys(("Phantom", "build_phantom"), "phantom"),
    **dict.fromkeys(
        (
            "MF_HU_RANGE",
            "MF_MIN_PIXELS",
            "SKIN_HU_THRESHOLD",
            "dilate_sat_to_skin",
            "muscular_fat_candidates",
        ),
        "postprocess",
    ),
    **dict.fromkeys(
        (
            "AllSlices",
            "MeasurementRegion",
            "SingleSlice",
            "SliceRange",
            "VertebraRegions",
            "label_area_per_slice",
            "largest_label_slice",
            "measurement_regions",
            "region_t12_l4",
            "sample_slices_by_interval",
            "slice_distance_cm",
        ),
        "regions",
    ),
}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
