"""Exception types shared across the package."""


class AlgebraError(ValueError):
    """Base class for structural errors in algebra construction or use."""


class HomogeneityError(AlgebraError):
    """A relation or element was required to be homogeneous and is not."""


class MismatchError(AlgebraError):
    """Operands live over different fields, algebras, or generator sets."""


class ModelInconsistencyError(AlgebraError):
    """A model postcondition failed; the constructed object is wrong."""


class CertificateError(AlgebraError):
    """A certificate product vanished or an expected witness is absent."""


class ResourceBudgetError(AlgebraError):
    """A computation would exceed its budget: a quotient degree or weight
    block its columns plus relation products, a split bar product its
    basis tensors, or a bar-product search its tensor products."""


class UnsupportedModelError(AlgebraError):
    """Parameters outside the range any builder supports."""


def _require_int(value, low: int, message: str, error=AlgebraError):
    """Refuse a count that is not an int (a bool included) or is below low."""
    if type(value) is not int:
        raise AlgebraError(f"expected an integer, got {value!r}")
    if value < low:
        raise error(message)
