"""Exception types shared across the package.

The class an error derives from fixes its CLI exit code, and ``cli.main``
catches one class per code: 2 for a ConfigError (bad input), 3 for an
UnsupportedOperandError and 4 for every other WarpconvError (numeric).
"""


class WarpconvError(Exception):
    """Base class for all library errors."""


class ConfigError(WarpconvError):
    """Invalid run configuration, expression or parameter."""


class ParseError(ConfigError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    """Identifier not among X1..X3, P1..P3, r, rho, i or the known constants."""


class SingularPointError(WarpconvError):
    """Negative power evaluated at its singular locus (r=0 or rho=0)."""


class UnboundConstantError(ConfigError):
    """A symbolic constant has no value in the supplied constants map."""


class UnsupportedOperandError(WarpconvError):
    """Operand outside the class a closed form or a grid reduction covers."""


class UnsupportedDegreeError(UnsupportedOperandError):
    """Deformation requested for momentum degree the closed form does not cover."""


class ZeroCouplingError(WarpconvError):
    """Gauge-field extraction with coupling zero."""


class SingularMatrixError(WarpconvError):
    """Transverse block of the deformation matrix is not invertible."""


class InternalInconsistencyError(WarpconvError):
    """A derived quantity violated a structural guarantee (engine bug guard)."""


class NonPositiveParameterError(ConfigError):
    """Parameter required to be strictly positive was not."""


class NonConvergenceError(WarpconvError):
    """Iterative eigensolver failed to reach the residual target."""


class SingularLoopError(WarpconvError):
    """Holonomy loop passes through a singular point of the gauge field."""
