"""Exception hierarchy shared by all modules.

Every domain failure raises a subclass of :class:`DomainError`; the CLI maps
these to exit code 1 with a machine-readable JSON payload on stderr.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""


# -- metric validation -------------------------------------------------------

class AsymmetricMatrix(DomainError):
    pass


class NonzeroDiagonal(DomainError):
    pass


class NonpositiveOffDiagonal(DomainError):
    pass


class TriangleViolation(DomainError):
    def __init__(self, i: int, j: int, k: int, slack: float):
        self.triple = (i, j, k)
        self.slack = slack
        super().__init__(
            f"triangle inequality violated on triple ({i},{j},{k}): "
            f"d[{i}][{k}] exceeds d[{i}][{j}]+d[{j}][{k}] by {slack:g}"
        )


class DisconnectedGraph(DomainError):
    pass


class IndexOutOfRange(DomainError):
    pass


class SizeMismatch(DomainError):
    pass


class ZeroSourceDistance(DomainError):
    pass


# -- lp geometry --------------------------------------------------------------

class DimMismatch(DomainError):
    pass


class InvalidP(DomainError):
    pass


class NotPSD(DomainError):
    pass


# -- composition --------------------------------------------------------------

class EmptyS(DomainError):
    pass


class InconsistentTranscript(DomainError):
    pass


class InvalidCase(DomainError):
    pass


class KappaOutOfRange(DomainError):
    pass


class NotExpanding(DomainError):
    """An embedding that was required to be expanding is not."""


# -- outlier SDP --------------------------------------------------------------

class GammaNotAboveOne(DomainError):
    pass


class Exhausted(DomainError):
    pass


# -- oracle -------------------------------------------------------------------

class BudgetExceeded(DomainError):
    pass


class SolverFailure(DomainError):
    pass
