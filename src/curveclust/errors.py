"""Exception types shared across the package.

InvalidInputError maps to CLI exit code 2, DegenerateDataError to exit code 3.
"""


class CurveClustError(Exception):
    pass


class InvalidInputError(CurveClustError):
    """Malformed user input (files, flags, parameters)."""


class DegenerateDataError(CurveClustError):
    """Data on which the method is undefined (constant curves, all-ones
    similarities, a pair with no scorable warp)."""


class InvalidKnotsError(InvalidInputError):
    pass


class UnsupportedDegreeError(InvalidInputError):
    pass


class SingularFitError(InvalidInputError):
    """Rank-deficient or hopelessly ill-conditioned least-squares design."""


class ZeroVarianceError(DegenerateDataError):
    pass


class MonotonicityError(CurveClustError):
    pass


class InvalidParameterError(InvalidInputError):
    pass


class WarpRangeError(CurveClustError):
    pass


class MissingSimilaritiesError(InvalidInputError):
    pass


class UndefinedIndexError(CurveClustError):
    pass


class ElementMismatchError(InvalidInputError):
    pass
