"""Exception taxonomy shared across the package."""


class BodycompError(Exception):
    """Base class for all package-specific errors."""


class UnitStateError(BodycompError):
    """Operation received a volume in the wrong unit state (raw vs HU)."""


class GeometryMismatchError(BodycompError):
    """Two volumes that must share dims/spacing/z positions do not."""


class LabelVocabularyError(BodycompError):
    """A label name is missing from a volume's label map."""


class VertebraNotFoundError(BodycompError):
    """A requested vertebra label has no voxels in the volume."""


class EmptyRegionError(BodycompError):
    """A measurement region contains no voxels of the requested tissue."""


class NonFiniteHUError(BodycompError):
    """A measurement met a NaN or infinite HU value (e.g. an overflowing rescale)."""


class UndefinedSMIError(BodycompError, ValueError):
    """A height gives no finite skeletal muscle index: its square is 0, or the index overflows."""


class UndefinedRatioError(BodycompError):
    """VAT/SAT ratio requested while the SAT measure is zero."""


class ConstantInputError(BodycompError):
    """A statistic is undefined because an input series is constant."""


class CohortError(BodycompError):
    """Demographics CSV is malformed (columns, values, duplicate ids)."""


class VolumeFormatError(BodycompError):
    """Base class for .bcv container format violations."""


class BadMagicError(VolumeFormatError):
    """File does not begin with the BCV1 magic bytes."""


class TruncatedPayloadError(VolumeFormatError):
    """File is shorter than header plus the payload the dims imply."""


class HeaderError(VolumeFormatError):
    """Header is unparsable or inconsistent with the payload/type invariants."""


class UnknownDtypeError(VolumeFormatError):
    """Header declares a dtype outside the supported set."""


class UnknownKindError(VolumeFormatError):
    """Header declares a volume kind outside the supported set."""
