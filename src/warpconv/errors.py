"""Exception types shared across the package."""


class WarpconvError(Exception):
    """Base class for all library errors."""


class ParseError(WarpconvError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    """Identifier not among X1..X3, P1..P3, r, rho, i or the known constants."""


class SingularPointError(WarpconvError):
    """Negative power evaluated at its singular locus (r=0 or rho=0)."""


class UnboundConstantError(WarpconvError):
    """A symbolic constant has no value in the supplied constants map."""


class UnsupportedDegreeError(WarpconvError):
    """Deformation requested for momentum degree the closed form does not cover."""


class UnsupportedOperandError(WarpconvError):
    """Rieffel product requested outside the momentum-linear class."""


class ZeroCouplingError(WarpconvError):
    """Gauge-field extraction with coupling zero."""


class SingularMatrixError(WarpconvError):
    """Transverse block of the deformation matrix is not invertible."""


class InternalInconsistencyError(WarpconvError):
    """A derived quantity violated a structural guarantee (engine bug guard)."""


class NonPositiveParameterError(WarpconvError):
    """Parameter required to be strictly positive was not."""


class NonConvergenceError(WarpconvError):
    """Iterative eigensolver failed to reach the residual target."""


class SingularLoopError(WarpconvError):
    """Holonomy loop passes through a singular point of the gauge field."""


class ConfigError(WarpconvError):
    """Invalid run configuration (CLI exit code 2)."""
