"""Seeded op sequences for the three benchmark workloads.

A workload is one fixed sequence of `warpconv` invocations (a "pass"),
generated from the workload seed.  The CLI only ever sees the generated
argv; the oracle parameters that travel with each op stay on this side.

The cost of a pass is kept independent of the seed: the seed changes
constants, extents, radii, expressions and the preset-to-grid assignment,
never how many ops of each size a pass holds.  That keeps the run-to-run
spread of the timings small across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("verify_suite", "spectrum_sweep", "cli_queries")

# Identity-suite sections: the name prefix `verify --select` takes and the
# private helper of `warpconv.verify` that builds the section's checks.
VERIFY_SECTIONS = {
    "hamiltonian": ("deformed_hamiltonian", "_deformed_hamiltonian_closed_form"),
    "momentum": ("deformed_momentum", "_deformed_momentum_closed_form"),
    "coordinate": ("deformed_coordinate", "_deformed_coordinate_check"),
    "factorization": ("factorization", "_factorization_checks"),
    "additivity": ("additivity", "_additivity_check"),
    "rieffel": ("rieffel_diagonal", "_rieffel_checks"),
    "coefficient": ("coefficient_", "_coefficient_checks"),
    "model": ("model", "_model_checks"),
    "moyal": ("moyal_plane_random", "_moyal_checks"),
    "gauge": ("gauge_cross_check", "_gauge_checks"),
}

PRESETS = ("free", "landau", "zeeman", "aharonov_bohm", "gravito_constant",
           "lense_thirring", "gravito_zeeman", "combined_constant",
           "combined_lense_thirring")

# Presets with a transverse (x2, x3) reduction, and the grid sizes on each
# side of the dense/sparse solver crossover (4096 unknowns at this commit).
SPECTRUM_PRESETS = ("landau", "zeeman", "aharonov_bohm", "free",
                    "gravito_constant")
DENSE_SIZES = (32, 32, 32, 32, 48)
SPARSE_SIZES = (64, 64, 64, 64, 128)
SPECTRUM_K = 16


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv after `warpconv`, the exit code it must
    give, and what the oracles need to judge its output."""

    argv: tuple[str, ...]
    kind: str
    expect_exit: int = 0
    params: dict = field(default_factory=dict, compare=False)


def _constants(values: dict[str, Fraction]) -> str:
    return ",".join(f"{k}={v}" for k, v in values.items())


# -- random operator expressions for `commutator` ---------------------------
#
# An expression is a list of terms (re, im, factors); a factor is
# (kind, which, exponent) with kind in X, P, r, rho, c (a constant).  The
# same tree renders the CLI text and, in the oracle, a sympy differential
# operator, so the oracle never reads the engine's own parse.

_R_EXPONENTS = (Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-1),
                Fraction(2), Fraction(1, 3))
_RHO_EXPONENTS = (Fraction(1, 2), Fraction(-1), Fraction(3, 2), Fraction(2),
                  Fraction(-1, 2))


def _random_factor(rng: random.Random, momentum_budget: list[int]):
    kinds = ["X", "r", "rho", "c"]
    if momentum_budget[0] > 0:
        kinds += ["P", "P"]
    kind = rng.choice(kinds)
    if kind == "X":
        return ("X", rng.randint(1, 3), rng.randint(1, 2))
    if kind == "P":
        momentum_budget[0] -= 1
        return ("P", rng.randint(1, 3), 1)
    if kind == "r":
        return ("r", None, rng.choice(_R_EXPONENTS))
    if kind == "rho":
        return ("rho", None, rng.choice(_RHO_EXPONENTS))
    return ("c", rng.choice(("e", "B")), rng.randint(1, 2))


def random_expression(rng: random.Random) -> list:
    terms = []
    for _ in range(rng.randint(1, 2)):
        budget = [2]
        factors = [_random_factor(rng, budget)
                   for _ in range(rng.randint(1, 3))]
        re = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        im = Fraction(rng.choice((0, 0, 1, -2)), rng.randint(1, 3))
        terms.append((re, im, factors))
    return terms


def _factor_text(f) -> str:
    kind, which, exp = f
    if kind in ("X", "P"):
        base = f"{kind}{which}"
    elif kind == "c":
        base = which
    else:
        base = kind
    if exp == 1:
        return base
    if isinstance(exp, Fraction) and (exp.denominator != 1 or exp < 0):
        return f"{base}^({exp})"
    return f"{base}^{exp}"


def expression_text(terms: list) -> str:
    chunks = []
    for n, (re, im, factors) in enumerate(terms):
        coeff = f"({re}+{im}*i)" if im else f"({re})"
        body = "*".join([coeff] + [_factor_text(f) for f in factors])
        chunks.append(body if n == 0 else f" + {body}")
    return "".join(chunks)


# -- workloads ----------------------------------------------------------------


def _verify_suite(rng: random.Random) -> list[Op]:
    return [Op(("verify", "--seed", str(rng.randrange(10 ** 6))), "verify")
            for _ in range(2)]


def _spectrum_op(preset: str, points: int, rng: random.Random) -> Op:
    extent = Fraction(10)
    oracle: dict = {"preset": preset, "k": SPECTRUM_K, "points": points}
    if preset == "free":
        m = Fraction(rng.choice((1, 2)))
        extent = Fraction(rng.choice((8, 10, 12)))
        consts = {"m": m}
    elif preset in ("landau", "zeeman"):
        consts = {"e": Fraction(1), "B": Fraction(rng.choice((2, 3, 4)), 2),
                  "m": Fraction(rng.choice((1, 2)))}
    elif preset == "aharonov_bohm":
        consts = {"e": Fraction(rng.choice((1, 2))),
                  "phi_M": Fraction(rng.randint(1, 7), 2),
                  "m": Fraction(1)}
    else:  # gravito_constant
        # Effective field 2 m Omega in [1, 2], as for landau above, so the
        # magnetic length never drops below 0.7 (about 2 spacings at N=32).
        m = Fraction(rng.choice((1, 2)))
        consts = {"m": m, "Omega": Fraction(rng.choice((2, 3, 4)), 4 * m)}
    oracle["constants"] = {k: str(v) for k, v in consts.items()}
    oracle["extent"] = str(extent)
    argv = ("spectrum", "--model", preset, "--grid", f"{points},{extent}",
            "--k", str(SPECTRUM_K), "--constants", _constants(consts),
            "--seed", str(rng.randrange(1000)))
    return Op(argv, "spectrum", params=oracle)


def _holonomy_op(preset: str, rng: random.Random) -> Op:
    radius = Fraction(rng.randint(50, 200), 100)
    if preset == "aharonov_bohm":
        # Either encircle the flux line or keep well clear of it, so the
        # periodic trapezoid rule converges geometrically in both cases.
        inside = rng.random() < 0.5
        d = radius * (Fraction(rng.randint(0, 40), 100) if inside
                      else Fraction(rng.randint(160, 250), 100))
        c2, c3 = d * Fraction(3, 5), d * Fraction(-4, 5)
        consts = {"e": Fraction(rng.choice((1, 2))),
                  "phi_M": Fraction(rng.randint(1, 9), 2)}
    else:
        c2 = Fraction(rng.randint(-100, 100), 100)
        c3 = Fraction(rng.randint(-100, 100), 100)
        if preset == "landau":
            consts = {"e": Fraction(rng.choice((1, 2))),
                      "B": Fraction(rng.randint(1, 8), 4)}
        else:  # gravito_constant
            consts = {"m": Fraction(rng.choice((1, 2))),
                      "Omega": Fraction(rng.randint(1, 8), 4)}
    c1 = Fraction(rng.randint(-100, 100), 100)
    center = (c1, c2, c3)
    points = rng.choice((128, 256, 512))
    argv = ("holonomy", "--model", preset, "--radius", str(float(radius)),
            # One token, since a leading minus would read as an option.
            "--center=" + ",".join(str(float(c)) for c in center),
            "--points", str(points), "--constants", _constants(consts))
    oracle = {"preset": preset, "radius": float(radius),
              "center": [float(c) for c in center],
              "constants": {k: str(v) for k, v in consts.items()}}
    return Op(argv, "holonomy", params=oracle)


def _spectrum_sweep(rng: random.Random) -> list[Op]:
    dense = list(DENSE_SIZES)
    sparse = list(SPARSE_SIZES)
    rng.shuffle(dense)
    rng.shuffle(sparse)
    ops = []
    for preset, nd, ns in zip(SPECTRUM_PRESETS, dense, sparse):
        ops.append(_spectrum_op(preset, nd, rng))
        ops.append(_spectrum_op(preset, ns, rng))
    for preset in ("landau", "aharonov_bohm", "gravito_constant"):
        ops.append(_holonomy_op(preset, rng))
    # No transverse reduction: the CLI must refuse with exit code 3.
    ops.append(Op(("spectrum", "--model", "lense_thirring", "--grid", "32,10",
                   "--k", str(SPECTRUM_K), "--constants", "m=1,Omega=1"),
                  "refused", expect_exit=3))
    rng.shuffle(ops)
    return ops


def _cli_queries(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(10):
        a, b = random_expression(rng), random_expression(rng)
        ops.append(Op(("commutator", "--a", expression_text(a),
                       "--b", expression_text(b)), "commutator",
                      params={"a": a, "b": b}))
    for preset in rng.sample(PRESETS, 3):
        ops.append(Op(("deform", "--model", preset), "deform"))
    for preset in rng.sample(PRESETS, 3):
        ops.append(Op(("gauge", "--model", preset), "gauge"))
    for preset in rng.sample(("landau", "aharonov_bohm", "gravito_constant"), 2):
        ops.append(_holonomy_op(preset, rng))
    section = rng.choice(sorted(VERIFY_SECTIONS))
    prefix = VERIFY_SECTIONS[section][0]
    ops.append(Op(("verify", "--select", prefix,
                   "--seed", str(rng.randrange(10 ** 6))), "verify",
                  params={"select": prefix}))
    rng.shuffle(ops)
    return ops


# Wall time of one pass on the reference host (2 vCPUs, Python 3.11) when
# it is quiet: a run makes the fewest passes, and at least two, that fill
# `seconds` at this pace.  A fixed count, not a clock, decides when a run
# stops, so that every run has the same sample sizes; a second pass lets
# run.py check that every op prints the same bytes each time.
NOMINAL_PASS_S = {
    "verify_suite": 7.5,
    "spectrum_sweep": 15.0,
    "cli_queries": 12.5,
}


def passes(workload: str, seconds: float) -> int:
    return max(2, math.ceil(seconds / NOMINAL_PASS_S[workload]))


_BUILDERS = {
    "verify_suite": _verify_suite,
    "spectrum_sweep": _spectrum_sweep,
    "cli_queries": _cli_queries,
}


def build(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The fixed op sequence of one pass; `smoke` keeps only two ops."""
    if workload not in _BUILDERS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"known: {', '.join(WORKLOADS)}")
    ops = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    if smoke:
        ops = ops[:2]
    return ops
