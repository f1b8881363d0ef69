"""Exception types raised across the package.

Everything derives from RgwotError so callers can catch one base class at
the CLI boundary and turn it into an exit code.
"""


class RgwotError(Exception):
    pass


class MalformedHeader(RgwotError):
    """Feature file header is truncated, has a bad magic, or a bad version."""


class ShapeMismatch(RgwotError):
    """Array payload or operand shapes disagree with the declared sizes."""


class NonFiniteValue(RgwotError):
    """A matrix that must be finite contains NaN or infinity."""


class ParseError(RgwotError):
    """Manifest or label text could not be parsed."""


class LengthMismatch(RgwotError):
    """A label sequence does not have one entry per frame."""


class ZeroNormRow(RgwotError):
    """An embedding row has zero norm, so cosine similarity is undefined."""

    def __init__(self, index: int, side: str = "x"):
        self.index = index
        self.side = side
        super().__init__(f"zero-norm embedding row {index} on side {side!r}")


class InvalidRadius(RgwotError):
    """Band ratio r outside (0, 1]."""


class NumericalOverflow(RgwotError):
    """Sinkhorn scaling left the representable range (epsilon too small)."""


class DimMismatch(RgwotError):
    """Feature dimension does not match the encoder input dimension."""


class InsufficientFrames(RgwotError):
    """Asked to sample more frames than the video has."""


class DegenerateData(RgwotError):
    """Fewer distinct points than requested clusters."""


class EmptyVideo(RgwotError):
    """A video has no non-background frames left."""


class ConfigError(RgwotError):
    """Hyperparameter or generator configuration violates its constraints."""
