"""Exception types shared across the package."""


class SidAlignError(Exception):
    """Base class for all data/numerics errors raised by this package; ``row``
    is the first bad row of the input, for a caller to name, if one is known."""

    def __init__(self, message: str = "", row: int | None = None):
        super().__init__(message)
        self.row = row


class ZeroVector(SidAlignError):
    pass


class DimensionMismatch(SidAlignError):
    pass


class ParseError(SidAlignError):
    pass


class UnknownLabel(SidAlignError):
    pass


class EmptyEnrollment(SidAlignError):
    pass


class MissingSpeaker(SidAlignError):
    pass


class ModelMismatch(SidAlignError):
    pass


class SpeakerOrderMismatch(SidAlignError):
    pass


class ConfigInvalid(SidAlignError):
    pass


class InsufficientData(SidAlignError):
    pass


class DisjointnessViolation(SidAlignError):
    pass


class VariantMismatch(SidAlignError):
    pass


class DegenerateTrialSet(SidAlignError):
    pass


class BaselineZero(SidAlignError):
    pass


class DegenerateGap(SidAlignError):
    pass


class UnknownId(SidAlignError):
    pass


class TrainingDiverged(SidAlignError):
    pass
