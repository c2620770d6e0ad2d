"""Exception hierarchy shared across the pipeline.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses (2 config, 3 data, 4 numeric).
"""


class ChronosemError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ConfigError(ChronosemError):
    """Invalid configuration or missing input path."""

    exit_code = 2


class CorpusFormatError(ChronosemError):
    """Corpus file violates the expected layout (columns, ordering, flags)."""


class AllDocumentsEmpty(ChronosemError):
    """Thresholding removed every usable (principal) document."""


class ZeroMarginError(ChronosemError):
    """A row or column of the count table has zero total."""


class EmptyProfile(ChronosemError):
    """A supplementary element has an all-zero profile."""


class EmptyCampaign(ChronosemError):
    """No usable documents for the requested campaign."""


class DimensionMismatch(ChronosemError):
    """Coordinate arrays do not share one finite dimensionality."""


class ConvergenceError(ChronosemError):
    """The underlying decomposition routine failed to converge."""

    exit_code = 4


class DegenerateSpread(ChronosemError):
    """Pairwise-distance spread is zero; z-scores are undefined."""

    exit_code = 4
