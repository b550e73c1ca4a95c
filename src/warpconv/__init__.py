"""Warped-convolution deformations on the 3D Heisenberg algebra.

Exact symbolic engine (normal ordering, commutators, equality by a
canonical normal form), closed-form deformations, induced gauge fields, a
preset catalog of the physical systems they reproduce, and grid-based
spectral verification.
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
                    jacobi_maxwell_report, lorentz_force)
from .models import (ModelPreset, PRESETS, UncertaintyBound, aharonov_bohm,
                     combined_em_gem, coulomb_potential, flux_equivalent,
                     free, get_preset, gravito_constant, gravito_zeeman,
                     guiding_center, landau, lense_thirring,
                     uncertainty_area_symbolic, uncertainty_bound, zeeman)
from .operators import OperatorExpr
from .parsing import parse
from .scalars import QC, SymbolicScalar
from .spectra import (DegeneracyReport, GridSpec, SpectrumResult, discretize,
                      distinct_level_spacings, eigenvalues, holonomy,
                      interference_phase, landau_degeneracy, phases_equal)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
