"""Exception types shared across the package."""


class CloudMorphError(Exception):
    """Base class for every error raised by this package."""


class MalformedHeaderError(CloudMorphError):
    """PLY header is missing, truncated, or structurally invalid."""


class MissingPropertyError(CloudMorphError):
    """PLY vertex element lacks a required property (x/y/z or red/green/blue)."""


class NonFiniteCoordinateError(CloudMorphError):
    """A vertex coordinate is NaN or infinite."""


class IoFailureError(CloudMorphError):
    """Output file could not be written."""


class DegenerateCloudError(CloudMorphError):
    """Cloud has zero spatial extent (all vertices identical)."""


class NotPositiveDefiniteError(CloudMorphError):
    """Matrix is not positive definite, even after diagonal jitter."""


class ShapeMismatchError(CloudMorphError):
    """Array dimensions do not agree with the cloud they describe."""


class DegenerateGeometryError(CloudMorphError):
    """Matched mass or point scatter too small to estimate a transform."""


class EmptyScoresError(CloudMorphError):
    """A score collection that must be non-empty is empty."""


class UnsupportedArityError(CloudMorphError):
    """Quadrant classification is defined only for two-subject morphs."""


class MissingThresholdError(CloudMorphError):
    """No threshold supplied for a recognition system present in the scores."""


class RaggedDataError(CloudMorphError):
    """Score table is missing, or duplicates, a required cell."""
