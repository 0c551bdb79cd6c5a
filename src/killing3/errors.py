"""Exception hierarchy shared across the package."""


class Killing3Error(Exception):
    """Base class for all package errors."""


class NonFinite(Killing3Error):
    """An input tensor contains NaN or infinite entries."""


class DomainError(Killing3Error):
    """Evaluation at a coordinate-degenerate point (phi below cutoff)."""


class JetOrderError(Killing3Error):
    """A derivative above the declared jet order was requested."""


class NotUnitLength(Killing3Error):
    """A vector field required to be unit length is not."""


class UnknownCatalogName(Killing3Error):
    """Catalog lookup with an unrecognized name."""


class BadParams(Killing3Error):
    """Catalog or family parameters out of range."""


class InadmissibleParams(BadParams):
    """Conformal-family parameters violating the energy admissibility bound."""


class EnergyDriftExceeded(Killing3Error):
    """The twist ODE's solution left its energy surface by more than the tolerance."""


class PhiVanishes(Killing3Error):
    """omega_r hits zero inside the requested range, so phi would vanish."""


class AlreadyLorentzian(BadParams):
    """to_lorentz applied to a spec that is already Lorentzian."""


class EmptyGrid(Killing3Error):
    """An operation received an empty point grid."""


class EmptyProfile(EmptyGrid):
    """Completeness verdict requested for an empty curvature profile."""


class BlowUp(Killing3Error):
    """A geodesic left the admissible coordinate domain."""


class StepFailure(Killing3Error):
    """The ODE integrator failed to meet its local tolerance."""


class ParseError(Killing3Error):
    """Metric-spec text could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
