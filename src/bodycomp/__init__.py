"""CT body composition quantification from segmentation masks.

Measures muscle density, VAT/SAT ratio, muscle area/volume, and SMI on
vertebra-defined regions (L3 slice for 2D, T12-L4 range for 3D), applies
the muscular-fat merge policy before measurement, post-processes masks
(SAT-skin dilation, muscular-fat filtering), and evaluates predicted
masks against ground truth with Dice/MRAE/R²/Pearson plus demographic
cohort reports.
"""

from .cohort import (
    AgeBinning,
    CorrelationEntry,
    GroupStat,
    METRIC_FIELDS,
    age_bins,
    correlation_matrix,
    group_stats,
)
from .errors import (
    BadMagicError,
    BodycompError,
    CohortError,
    ConstantInputError,
    EmptyRegionError,
    GeometryMismatchError,
    HeaderError,
    LabelVocabularyError,
    NonFiniteHUError,
    TruncatedPayloadError,
    UndefinedRatioError,
    UnitStateError,
    UnknownDtypeError,
    UnknownKindError,
    VertebraNotFoundError,
    VolumeFormatError,
)
from .evaluation import (
    CaseEvaluation,
    DiceResult,
    EvalReport,
    EvalRow,
    MetricErrorRow,
    MraeResult,
    MUSCLE_DENSITY_RANGE_HU,
    aggregate_cases,
    dice,
    evaluate_case,
    evaluate_masks,
    metric_pct_difference,
    mrae,
    muscle_density_error_pct,
    pearson_r,
    r_squared,
)
from .io import VolumeHeader, read_cohort_csv, read_header, read_volume, write_volume
from .measures import (
    measure_subject,
    muscle_density,
    smi,
    tissue_area_2d,
    tissue_volume_3d,
    vat_sat_ratio,
)
from .model import (
    BACKGROUND,
    BodyCompResult,
    Geometry,
    LabelVolume,
    MUSCULAR_FAT,
    MergePolicy,
    SAT,
    SKELETAL_MUSCLE,
    Sex,
    SubjectRecord,
    TISSUE_NAMES,
    UnitState,
    VAT,
    VoxelVolume,
    apply_merge_policy,
    default_tissue_label_map,
    to_hu,
    vertebra_label,
)
from .phantom import Phantom, build_phantom
from .postprocess import (
    MF_HU_RANGE,
    MF_MIN_PIXELS,
    SKIN_HU_THRESHOLD,
    dilate_sat_to_skin,
    muscular_fat_candidates,
)
from .regions import (
    AllSlices,
    MeasurementRegion,
    SingleSlice,
    SliceRange,
    VertebraRegions,
    label_area_per_slice,
    largest_label_slice,
    measurement_regions,
    region_t12_l4,
    sample_slices_by_interval,
    slice_distance_cm,
)

__version__ = "0.1.0"
