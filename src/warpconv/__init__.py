"""Warped-convolution deformations on the 3D Heisenberg algebra.

Exact symbolic engine (normal ordering, commutators, equality by a
canonical normal form), closed-form deformations, induced gauge fields, a
preset catalog of the physical systems they reproduce, and grid-based
spectral verification.  The grid-spectrum names come from ``spectra`` on
first use, so importing the package does not load numpy or scipy.
"""

from .coords import CoordFunction
from .deform import (DeformationMatrix, DeformationSpec, QSpec,
                     check_additivity, deform_coordinate, deform_operator,
                     deform_sequence, factorization_check, momentum_shift,
                     rieffel_product, shifted_momentum)
from .errors import (ConfigError, InternalInconsistencyError,
                     NonConvergenceError, NonExactPointError,
                     NonPositiveParameterError, ParseError,
                     SingularLoopError, SingularMatrixError,
                     SingularPointError, UnboundConstantError,
                     UnknownSymbolError, UnsupportedDegreeError,
                     UnsupportedOperandError, WarpconvError,
                     ZeroCouplingError)
from .gauge import (FieldStrength, GaugeField, LorentzForceResult,
                    bianchi_check, extract_gauge_field, field_strength,
                    holonomy, interference_phase, jacobi_maxwell_report,
                    lorentz_force, phases_equal)
from .models import (ModelPreset, PRESETS, UncertaintyBound, aharonov_bohm,
                     combined_em_gem, coulomb_potential, flux_equivalent,
                     free, get_preset, gravito_constant, gravito_zeeman,
                     guiding_center, landau, lense_thirring,
                     uncertainty_area_symbolic, uncertainty_bound, zeeman)
from .operators import OperatorExpr
from .parsing import parse
from .scalars import QC, SymbolicScalar

__version__ = "0.1.0"

# Served from `spectra`, the one module that imports numpy and scipy.
_SPECTRA_NAMES = ("DegeneracyReport", "GridSpec", "SpectrumResult",
                  "discretize", "distinct_level_spacings", "eigenvalues",
                  "landau_degeneracy")


def __getattr__(name: str):
    if name in _SPECTRA_NAMES:
        # Imported here so symbolic use never loads numpy/scipy; no cycle.
        from . import spectra
        return getattr(spectra, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [*_SPECTRA_NAMES, "spectra"])
