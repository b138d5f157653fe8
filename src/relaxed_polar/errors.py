"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible matrix dimensions."""


class NotSkew(ValueError):
    """A matrix required to be skew-symmetric is not, beyond tolerance."""


class RegimeError(ValueError):
    """Weights lie in the wrong regime for the requested quantity."""


class DegenerateSpectrum(ValueError):
    """Repeated singular values make the requested object ill-defined."""


class TooLarge(ValueError):
    """Dimension exceeds the guard for an exhaustive combinatorial routine."""


class InadmissiblePartition(ValueError):
    """A block partition violates the admissibility conditions for the given spectrum."""


class OrientationError(ValueError):
    """A sign pattern cannot be realized by a rotation (overall determinant -1)."""


class MatrixParseError(ValueError):
    """Command-line matrix input could not be parsed into a valid deformation gradient."""
