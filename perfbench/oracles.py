"""Output oracles that do not trust the engine.

Every op output is judged here, outside the timed region:

* its exit code is the one the op expects, and a refused op prints nothing;
* JSON output validates against `src/warpconv/schemas/<command>.json`;
* `verify` reports `all_pass` (and a `--select` run only its own section);
* spectra: k ascending eigenvalues, every residual <= 1e-8, the Landau and
  gravitomagnetic ground levels within 1% of eB/2m and Omega, and free-box
  levels within the truncation bound of the 3-point stencil;
* holonomies match the enclosed flux in closed form;
* `commutator` results, applied to a generic psi(x1, x2, x3) with sympy,
  match [A, B] psi = A(B psi) - B(A psi) built from the generated operands
  (see `commutator_problems`; it is slow, so runs on a sample of ops).

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from fractions import Fraction

import jsonschema
import referencing

RESIDUAL_LIMIT = 1e-8
# Ground-level tolerance; the same 1% the repository's own box-spectrum
# test (tests/test_spectra.py) applies.
GROUND_TOLERANCE = 0.01
HOLONOMY_TOLERANCE = 1e-9


def load_validators(schema_dir: str) -> dict:
    """Validator per command name, with `expression.json` references resolved."""
    schemas = {}
    for fname in sorted(os.listdir(schema_dir)):
        if fname.endswith(".json"):
            with open(os.path.join(schema_dir, fname)) as fh:
                schemas[fname[:-5]] = json.load(fh)
    registry = referencing.Registry().with_resources(
        (s["$id"], referencing.Resource.from_contents(s))
        for s in schemas.values())
    return {name: jsonschema.Draft202012Validator(s, registry=registry)
            for name, s in schemas.items()}


def check(op, exit_code: int, stdout: str, validators: dict) -> list[str]:
    """Problems with one op's result (empty when it passes)."""
    if exit_code != op.expect_exit:
        return [f"exit code {exit_code}, expected {op.expect_exit}"]
    if op.expect_exit != 0:
        return ["refused op printed output"] if stdout else []
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    command = op.argv[0]
    errors = sorted(validators[command].iter_errors(out), key=str)
    if errors:
        return [f"schema {command}.json: {errors[0].message}"]
    physics = _PHYSICS.get(op.kind)
    return physics(op, out) if physics else []


def _verify(op, out) -> list[str]:
    problems = []
    if not out["all_pass"]:
        failed = [c["name"] for c in out["checks"] if not c["passed"]]
        problems.append(f"all_pass false: {', '.join(failed) or 'no check failed'}")
    if not out["checks"]:
        problems.append("no checks reported")
    prefix = op.params.get("select")
    if prefix is not None:
        stray = [c["name"] for c in out["checks"]
                 if not c["name"].startswith(prefix)]
        if stray:
            problems.append(f"--select {prefix} reported {stray[0]}")
    return problems


def box_level_bounds(k: int, points: int, extent: float, mass: float):
    """Order-statistic bounds on the k lowest levels of the Dirichlet box.

    The continuum levels are pi^2 (n2^2 + n3^2) / (2 m L^2).  On N interior
    nodes the 3-point stencil scales the axis-n part by 2(1 - cos t)/t^2
    with t = n pi / (N + 1), which lies within t^2/12 of 1; so each level
    lies within max(t2, t3)^2 / 12 of its continuum value, and the i-th
    smallest computed level lies between the i-th smallest lower and upper
    bounds.  Higher-order stencils sit inside the same bound.
    """
    scale = math.pi ** 2 / (2.0 * mass * extent ** 2)
    nmax = int(math.ceil(math.sqrt(4 * k))) + 2
    lows, highs = [], []
    for n2 in range(1, min(nmax, points) + 1):
        for n3 in range(1, min(nmax, points) + 1):
            e = scale * (n2 * n2 + n3 * n3)
            t = max(n2, n3) * math.pi / (points + 1)
            lows.append(e * (1.0 - t * t / 12.0))
            highs.append(e * (1.0 + t * t / 12.0))
    return sorted(lows)[:k], sorted(highs)[:k]


def _spectrum(op, out) -> list[str]:
    p = op.params
    k = p["k"]
    evs, res = out["eigenvalues"], out["residuals"]
    problems = []
    if out["count"] != k or len(evs) != k or len(res) != k:
        problems.append(f"expected {k} levels, got count={out['count']}, "
                        f"{len(evs)} eigenvalues, {len(res)} residuals")
    if any(b < a for a, b in zip(evs, evs[1:])):
        problems.append("eigenvalues not ascending")
    worst = max(res, default=0.0)
    if not worst <= RESIDUAL_LIMIT:
        problems.append(f"residual {worst:.3g} > {RESIDUAL_LIMIT}")
    if problems or not evs:
        return problems
    c = {name: float(Fraction(v)) for name, v in p["constants"].items()}
    ground = None
    if p["preset"] == "landau":
        ground = c["e"] * c["B"] / (2.0 * c["m"])
    elif p["preset"] == "gravito_constant":
        # Coupling m to the field 2 Omega: e B / 2m with e -> m, B -> 2 Omega.
        ground = c["Omega"]
    if ground is not None and abs(evs[0] - ground) > GROUND_TOLERANCE * ground:
        problems.append(f"ground level {evs[0]!r}, expected {ground!r} "
                        f"within {GROUND_TOLERANCE:.0%}")
    if p["preset"] == "free":
        lows, highs = box_level_bounds(k, p["points"],
                                       float(Fraction(p["extent"])), c["m"])
        for i, (ev, lo, hi) in enumerate(zip(evs, lows, highs)):
            if not lo <= ev <= hi:
                problems.append(f"box level {i} = {ev!r} outside "
                                f"[{lo!r}, {hi!r}]")
                break
    return problems


def expected_holonomy(params: dict) -> float:
    """Closed-form loop integral of A for the presets the workloads use."""
    c = {name: float(Fraction(v)) for name, v in params["constants"].items()}
    radius = params["radius"]
    area = math.pi * radius * radius
    if params["preset"] == "landau":
        return c["B"] * area                      # A = (B/2)(0, -x3, x2)
    if params["preset"] == "gravito_constant":
        return 2.0 * c["Omega"] * area            # A = Omega (0, -x3, x2)
    # Aharonov-Bohm: the whole flux if the loop encircles the line.
    _, c2, c3 = params["center"]
    return c["phi_M"] if math.hypot(c2, c3) < radius else 0.0


def _holonomy(op, out) -> list[str]:
    want = expected_holonomy(op.params)
    got = out["value"]
    if abs(got - want) > HOLONOMY_TOLERANCE * max(1.0, abs(want)):
        return [f"holonomy {got!r}, expected {want!r}"]
    return []


def _gauge(op, out) -> list[str]:
    if not all(f["bianchi_zero"] for f in out["fields"]):
        return ["bianchi_zero false"]
    return []


_PHYSICS = {
    "verify": _verify,
    "spectrum": _spectrum,
    "holonomy": _holonomy,
    "gauge": _gauge,
}


# -- commutator oracle (sympy) -----------------------------------------------


class _Sym:
    """sympy symbols and the generic test function psi(x1, x2, x3)."""

    def __init__(self):
        import sympy  # about a second to import; only this oracle needs it
        self.sp = sympy
        self.x = sympy.symbols("x1 x2 x3", real=True)
        x1, x2, x3 = self.x
        self.r = sympy.sqrt(x1 ** 2 + x2 ** 2 + x3 ** 2)
        self.rho = sympy.sqrt(x2 ** 2 + x3 ** 2)
        self.psi = sympy.Function("psi")(*self.x)
        self.consts: dict = {}

    def const(self, name: str):
        if name not in self.consts:
            self.consts[name] = self.sp.Symbol(name, positive=True)
        return self.consts[name]

    def rational(self, v) -> object:
        v = Fraction(v)
        return self.sp.Rational(v.numerator, v.denominator)

    def apply_tree(self, terms: list, f):
        """Apply a generated expression (factors act right to left) to f."""
        total = 0
        for re, im, factors in terms:
            g = f
            for kind, which, exp in reversed(factors):
                if kind == "P":
                    for _ in range(exp):
                        g = -self.sp.I * self.sp.diff(g, self.x[which - 1])
                elif kind == "X":
                    g = self.x[which - 1] ** exp * g
                elif kind == "r":
                    g = self.r ** self.rational(exp) * g
                elif kind == "rho":
                    g = self.rho ** self.rational(exp) * g
                else:
                    g = self.const(which) ** exp * g
            total += (self.rational(re) + self.sp.I * self.rational(im)) * g
        return total

    def apply_json(self, expression: dict, f):
        """Apply an engine output term list: c(x) (-i)^|P| d^P, P on the right."""
        total = 0
        for t in expression["terms"]:
            g = f
            for axis, power in enumerate(t["P"]):
                for _ in range(power):
                    g = -self.sp.I * self.sp.diff(g, self.x[axis])
            coeff = (self.rational(t["coeff"]["re"])
                     + self.sp.I * self.rational(t["coeff"]["im"]))
            for name, e in t["constants"].items():
                coeff *= self.const(name) ** e
            for axis, e in enumerate(t["x"]):
                coeff *= self.x[axis] ** e
            coeff *= self.r ** self.rational(t["r"])
            coeff *= self.rho ** self.rational(t["rho"])
            total += coeff * g
        return total

    def by_derivative(self, expr) -> dict:
        """Coefficient of psi and of each of its derivatives."""
        out: dict = {}
        for term in self.sp.Add.make_args(self.sp.expand(expr)):
            if term == 0:
                continue
            key = [f for f in self.sp.Mul.make_args(term) if f.has(self.psi)]
            if len(key) != 1:
                raise ValueError(f"term is not linear in psi: {term}")
            out[key[0]] = out.get(key[0], 0) + term / key[0]
        return out


@functools.cache
def _sympy_env() -> _Sym:
    return _Sym()


def commutator_problems(a: list, b: list, out: dict, seed: int,
                        points: int = 3) -> list[str]:
    """Compare the engine's [A, B] with A(B psi) - B(A psi) from sympy.

    Both sides are split into coefficients of psi and its derivatives; each
    pair must agree to 30 digits at `points` random points (and random
    positive values of the constants).
    """
    s = _sympy_env()
    sp = s.sp
    want = s.by_derivative(s.apply_tree(a, s.apply_tree(b, s.psi))
                           - s.apply_tree(b, s.apply_tree(a, s.psi)))
    got = s.by_derivative(s.apply_json(out["expression"], s.psi))
    rng = random.Random(seed)
    symbols = list(s.x) + list(s.consts.values())
    for _ in range(points):
        at = {sym: sp.Rational(rng.randint(1, 97), rng.randint(1, 29))
              * rng.choice((1, -1) if sym in s.x else (1,))
              for sym in symbols}
        for key in set(want) | set(got):
            w = sp.N(sp.sympify(want.get(key, 0)).subs(at), 50)
            g = sp.N(sp.sympify(got.get(key, 0)).subs(at), 50)
            scale = max(1.0, abs(complex(w)), abs(complex(g)))
            if abs(complex(w - g)) > 1e-30 * scale:
                return [f"commutator differs on {key}: {complex(g)} "
                        f"vs {complex(w)} at {at}"]
    return []
