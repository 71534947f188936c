"""Exception types shared across the package."""


class SoctError(Exception):
    """Base class for all library errors."""


class ConfigError(SoctError):
    """Invalid configuration: world geometry, class registry, or weights."""


class DistributionError(SoctError):
    """A probability vector or parameter violates range/normalization rules."""


class SupportError(DistributionError):
    """KL divergence undefined: the reference assigns zero mass where p does not."""


class OutOfBoundsError(SoctError):
    """A point lies outside the mapped world volume."""


class TreeError(SoctError):
    """Structural misuse of a tree: unknown key, wrong node kind, invalid subtree."""


class SummaryError(TreeError):
    """The tree still contains summary nodes; expand them before this operation."""


class SizeLimitError(SoctError):
    """Problem instance exceeds an enforced size bound."""


class FormatError(SoctError):
    """A file has the wrong magic, version, or field layout."""


class CorruptionError(SoctError):
    """A file is truncated or internally inconsistent."""


class IngestError(SoctError):
    """Too many malformed records while reading a point-cloud file.

    When ``formats.read_cloud`` raises it, ``cloud`` holds the records read
    before the abort.
    """

    def __init__(self, message):
        super().__init__(message)
        self.cloud = None


class GraphError(SoctError):
    """A planning graph could not be constructed."""
