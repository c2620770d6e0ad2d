"""Exception hierarchy shared across the pipeline.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses (2 config, 3 data, 4 numeric).
"""


class ChronosemError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ConfigError(ChronosemError):
    """Invalid configuration or missing input path; ``path`` is the path
    the error names, if it names one, and ends its message."""

    exit_code = 2

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message if path is None else f"{message}: {path}")
        self.path = path


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


class TableTooLarge(ChronosemError):
    """The count table's fit needs more memory than the process can have."""

    exit_code = 4


class DegenerateSpread(ChronosemError):
    """Pairwise-distance spread is zero; z-scores are undefined."""

    exit_code = 4
