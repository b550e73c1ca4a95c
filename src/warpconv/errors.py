"""Exception types shared across the package.

Every refusal the package raises is a WarpconvError, and its class fixes
its CLI exit code: ``cli.main`` catches one class per code, 2 for a
ConfigError (bad input; also a ValueError), 3 for an
UnsupportedOperandError and 4 for every other WarpconvError: a numeric
failure or an engine guard only.  A division an exact value cannot make
(by zero, a sum or a position) is bad input: ``CoordFunction.inverse``
refuses it with a ConfigError wherever it is asked for.
``cli.main`` also exits 4 for a MemoryError, an OverflowError (a value
beyond the float range) and the ValueError of an exact integer too long
to print (``sys.get_int_max_str_digits()``).  ConfigError's ValueError base
must not meet an argparse ``type=``, which would print its own line instead.
"""


class WarpconvError(Exception):
    """Base class for all library errors."""


class ConfigError(WarpconvError, ValueError):
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


class InternalInconsistencyError(WarpconvError):
    """A derived quantity violated a structural guarantee (engine bug guard)."""


class NonPositiveParameterError(ConfigError):
    """Parameter required to be strictly positive was not."""


class NonConvergenceError(WarpconvError):
    """Iterative eigensolver failed to reach the residual target."""


class SingularLoopError(WarpconvError):
    """Holonomy loop passes through a singular point of the gauge field."""
