"""Exception types shared across the package."""


class NotInvertibleError(ValueError):
    """An element (residue or matrix) required to be invertible is not."""


class NoUniqueSuccessorError(ValueError):
    """The eigenvalue's order is not coprime to p*q, so no unique successor exists."""


class InconsistentSpectrumError(ValueError):
    """A spectrum multiset violates the equal-power-multiset hypothesis."""


class NormalizationRequiredError(ValueError):
    """Singular-case similarity needs exponents normalized to 1 <= p < q."""


class ClusteringAmbiguityError(ValueError):
    """Numerically computed eigenvalues cannot be clustered unambiguously."""


class InvalidK1Error(ValueError):
    """The chosen seed residue k1 lies in an excluded coset.

    ``violated_divisor`` is the strict divisor z of n whose excluded set
    contains k1.
    """

    def __init__(self, message: str, violated_divisor: int):
        super().__init__(message)
        self.violated_divisor = violated_divisor
