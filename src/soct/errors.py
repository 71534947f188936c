"""Exception types shared across the package.

Each class names its ``category``, the word the CLI prints in its
``error: <category>: <message>`` line; a subclass inherits its parent's.
"""


class SoctError(Exception):
    """Base class for all library errors."""
    category = "internal"


class ConfigError(SoctError):
    """Invalid configuration: world geometry, class registry, or weights."""
    category = "config"


class DistributionError(SoctError):
    """A probability vector or parameter violates range/normalization rules."""
    category = "distribution"


class OutOfBoundsError(SoctError):
    """A point lies outside the mapped world volume."""
    category = "out-of-bounds"


class TreeError(SoctError):
    """Structural misuse of a tree: unknown key, wrong node kind, invalid subtree."""
    category = "tree"


class SummaryError(TreeError):
    """The tree still contains summary nodes; expand them before this operation."""


class SizeLimitError(SoctError):
    """Problem instance exceeds an enforced size bound."""
    category = "size-limit"


class FormatError(SoctError):
    """A file has the wrong magic, version, or field layout."""
    category = "format"


class CorruptionError(SoctError):
    """A file is truncated or internally inconsistent."""
    category = "corruption"


class IngestError(SoctError):
    """Too many malformed records while reading a point-cloud file.

    When ``formats.read_cloud`` raises it, ``cloud`` holds the records read
    before the abort.
    """
    category = "ingest"

    def __init__(self, message):
        super().__init__(message)
        self.cloud = None


class GraphError(SoctError):
    """A planning graph could not be constructed."""
    category = "graph"
