"""Warped-convolution deformations on the 3D Heisenberg algebra.

Exact symbolic engine (normal ordering, commutators, equality by a
canonical normal form), closed-form deformations, induced gauge fields, a
preset catalog of the physical systems they reproduce, and grid-based
spectral verification.

The namespace is lazy (PEP 562): importing the package loads no
submodule.  Each public name, and each submodule listed in ``__all__``,
is imported from its home module on first use, so ``warpconv.parse``
loads only the parser and the exact kernel below it, and only the
``spectra`` names load numpy and scipy.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name; the submodules themselves are public.
_EXPORTS = {
    "coords": ("CoordFunction",),
    "deform": ("DeformationSpec", "deform_coordinate", "deform_operator",
               "deform_sequence", "momentum_shift", "rieffel_product"),
    "errors": ("ConfigError", "InternalInconsistencyError",
               "NonConvergenceError", "NonPositiveParameterError",
               "ParseError", "SingularLoopError", "SingularMatrixError",
               "SingularPointError", "UnboundConstantError",
               "UnknownSymbolError",
               "UnsupportedDegreeError", "UnsupportedOperandError",
               "WarpconvError", "ZeroCouplingError"),
    "gauge": ("bianchi_check", "curl", "extract_gauge_field",
              "field_strength", "holonomy", "lorentz_force"),
    "models": ("GridSpec", "ModelPreset", "PRESETS", "coulomb_potential",
               "get_preset", "guiding_center", "uncertainty_area_symbolic"),
    "operators": ("OperatorExpr",),
    "parsing": ("parse",),
    "scalars": ("QC",),
    "spectra": ("SpectrumResult", "discretize", "eigenvalues"),
}

_HOME = {**{module: module for module in _EXPORTS},
         **{name: module for module, names in _EXPORTS.items()
            for name in names}}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
