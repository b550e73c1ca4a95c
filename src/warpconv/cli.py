"""Batch command-line front end.

Commands: deform, commutator, gauge, verify, spectrum, holonomy.  Options
may come from a flat key = value config file (--config); command-line flags
win over config entries.  Output is canonical JSON (sorted keys, fixed
separators), byte-identical across runs with the same config and seed;
human-readable summaries go to stderr.

Exit codes: 0 success, 1 failed identity, 2 bad configuration,
3 unsupported operator class, 4 numeric failure.

Building the parser and reading the options load no symbolic module: each
command imports the modules it runs when it runs, so ``commutator`` loads
only the parser and the exact kernel, and only ``spectrum`` loads numpy
and scipy, after the checks that can refuse its input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import (ConfigError, NonConvergenceError, ParseError,
                     SingularLoopError, SingularMatrixError,
                     SingularPointError, UnboundConstantError,
                     UnsupportedDegreeError, UnsupportedOperandError,
                     WarpconvError)

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4


def _dump(obj: dict, out: str | None, fmt: str = "json") -> None:
    if fmt == "json":
        payload = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        payload = obj["csv"]
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key = value")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def _merged(args: argparse.Namespace, key: str, default=None):
    val = getattr(args, key, None)
    if val is not None:
        return val
    cfg = getattr(args, "_config", {})
    if key in cfg:
        return cfg[key]
    return default


def _number(value, option: str, kind=float):
    """kind(value); text that is not a finite number is a ConfigError."""
    try:
        number = kind(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{option} needs a number, got {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(f"{option} needs a finite number, got {value!r}")
    return number


def _parse_constants(text) -> dict[str, float]:
    if text is None:
        return {}
    if isinstance(text, dict):
        return text
    out = {}
    for chunk in str(text).replace(",", " ").split():
        if "=" not in chunk:
            raise ConfigError(f"constants entries are name=value, got {chunk!r}")
        name, val = chunk.split("=", 1)
        out[name] = float(_number(val, f"constant {name}", Fraction))
    return out


def _parse_matrix(text: str):
    from .deform import DeformationMatrix
    vals = [_number(v, "--B", Fraction)
            for v in str(text).replace(",", " ").split()]
    if len(vals) == 1 and vals[0] == 0:
        return DeformationMatrix.zero()
    if len(vals) == 3:
        return DeformationMatrix.axial(*vals)
    if len(vals) == 9:
        matrix = DeformationMatrix([vals[0:3], vals[3:6], vals[6:9]])
        if not matrix.is_skew_symmetric():
            raise ConfigError("--B must be skew-symmetric")
        return matrix
    raise ConfigError("--B needs 1 (zero), 3 (axial) or 9 (row-major) entries")


def _parse_generator(text: str):
    from .deform import QSpec
    label, _, param = str(text).partition(":")
    label = label.strip().lower()
    if label in ("coordinate", "x"):
        return QSpec.coordinate()
    if label in ("radial", "radial-power"):
        if not param:
            raise ConfigError("radial generator needs a parameter, e.g. radial:3/2")
        return QSpec.radial_power(_number(param, "--Q radial", Fraction))
    if label in ("transverse", "transverse-radial", "rho"):
        return QSpec.transverse_radial()
    raise ConfigError(f"unknown generator {text!r}")


def _parse_coupling(text: str):
    from .scalars import SymbolicScalar
    text = str(text).strip()
    sign = 1
    if text.startswith("-"):
        sign = -1
        text = text[1:].strip()
    if not text.isidentifier():
        raise ConfigError(f"coupling must be a constant name, got {text!r}")
    return SymbolicScalar.symbol(text, 1, sign)


def _resolve_model(args) -> tuple[str | None, list, object]:
    """(name, specs, preset-or-None) from --model or inline --B/--Q."""
    from .deform import DeformationSpec
    from .models import get_preset
    name = _merged(args, "model")
    if name is not None:
        try:
            preset = get_preset(str(name))
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from exc
        return preset.name, list(preset.specs), preset
    b = _merged(args, "B")
    if b is None:
        raise ConfigError("need --model or an inline --B matrix")
    matrix = _parse_matrix(b)
    gen = _parse_generator(_merged(args, "Q", "coordinate"))
    return None, [DeformationSpec(matrix, gen)], None


def _expression_payload(expr) -> dict:
    return {"expression": expr.to_json_dict(), "pretty": str(expr)}


def cmd_deform(args) -> int:
    from .deform import deform_sequence
    from .operators import OperatorExpr
    from .parsing import parse
    name, specs, preset = _resolve_model(args)
    expr_text = _merged(args, "expr")
    if expr_text is not None:
        operand = parse(str(expr_text))
    elif preset is not None:
        operand = preset.base_hamiltonian()
    else:
        operand = OperatorExpr.free_hamiltonian()
    deformed = deform_sequence(operand, specs)
    payload = {
        "command": "deform",
        "model": name,
        "operand": str(operand),
        **_expression_payload(deformed),
    }
    if preset is not None:
        payload["metadata"] = preset.metadata()
    _dump(payload, _merged(args, "out"))
    print(f"deformed: {deformed}", file=sys.stderr)
    return EXIT_OK


def cmd_commutator(args) -> int:
    from .parsing import parse
    a_text, b_text = _merged(args, "a"), _merged(args, "b")
    if not a_text or not b_text:
        raise ConfigError("commutator needs --a and --b expressions")
    a, b = parse(str(a_text)), parse(str(b_text))
    comm = a.commutator(b)
    payload = {"command": "commutator", "a": str(a), "b": str(b),
               **_expression_payload(comm)}
    _dump(payload, _merged(args, "out"))
    print(f"[a, b] = {comm}", file=sys.stderr)
    return EXIT_OK


def cmd_gauge(args) -> int:
    from .gauge import bianchi_check, extract_gauge_field, field_strength
    from .operators import OperatorExpr
    name, specs, preset = _resolve_model(args)
    coupling = (_parse_coupling(_merged(args, "coupling", "e"))
                if preset is None else preset.coupling)
    fields = []
    for spec in specs:
        gf = extract_gauge_field(spec, coupling)
        fs = field_strength(spec, coupling)
        fields.append({
            "components": [str(c) for c in gf.components],
            "components_json": [
                OperatorExpr.from_coord(c).to_json_dict()
                for c in gf.components
            ],
            "field_strength": [[str(fs.rows[i][j]) for j in range(3)]
                               for i in range(3)],
            "bianchi_zero": bool(bianchi_check(spec)),
        })
    payload = {"command": "gauge", "model": name,
               "coupling": str(coupling), "fields": fields}
    _dump(payload, _merged(args, "out"))
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite
    # The suite draws nothing at random; the schema keeps "seed", so echo it.
    seed = _number(_merged(args, "seed", 0), "--seed", int)
    select_raw = _merged(args, "select")
    select = None
    if select_raw is not None:
        select = [s.strip() for s in str(select_raw).split(",") if s.strip()]
    negative = bool(_merged(args, "negative_control", False))
    report = run_suite(select=select, negative_control=negative)
    if not report["checks"]:
        raise ConfigError(f"--select {select_raw!r} matches no check")
    payload = {"command": "verify", "seed": seed, **report}
    _dump(payload, _merged(args, "out"))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    print(f"verify: {len(report['checks'])} checks, "
          f"{len(failed)} failed", file=sys.stderr)
    for nm in failed:
        print(f"  FAIL {nm}", file=sys.stderr)
    return EXIT_OK if report["all_pass"] else EXIT_IDENTITY


def cmd_spectrum(args) -> int:
    from .models import GridSpec
    name, specs, preset = _resolve_model(args)
    if preset is None:
        raise ConfigError("spectrum needs --model (a preset name)")
    grid_text = _merged(args, "grid", "64,10")
    parts = str(grid_text).replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError("--grid needs N,L")
    points = _number(parts[0], "--grid N", int)
    extent = _number(parts[1], "--grid L")
    try:
        grid = GridSpec(extent=extent, points=points)
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from exc
    constants = _parse_constants(_merged(args, "constants"))
    k = _number(_merged(args, "k", 16), "--k", int)
    k_max = min(64, points * points - 2)  # the limits eigenvalues() enforces
    if not 1 <= k <= k_max:
        raise ConfigError(f"--k must be between 1 and {k_max} on this grid")
    seed = _number(_merged(args, "seed", 0), "--seed", int)
    # The refusals of discretize(), made before numpy and scipy are loaded.
    if "m" not in constants:
        raise UnboundConstantError("mass constant 'm' must be bound")
    preset.transverse_shift()
    from .spectra import discretize, eigenvalues
    matrix, info = discretize(preset, grid, constants)
    result = eigenvalues(matrix, k, info, seed=seed)
    payload = {"command": "spectrum", "model": name,
               **result.to_json_dict()}
    fmt = str(_merged(args, "format", "json"))
    if fmt == "csv":
        payload["csv"] = result.to_csv()
    elif fmt != "json":
        raise ConfigError(f"unknown format {fmt!r}")
    _dump(payload, _merged(args, "out"), fmt)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_holonomy(args) -> int:
    from .gauge import extract_gauge_field, holonomy
    name, specs, preset = _resolve_model(args)
    coupling = (_parse_coupling(_merged(args, "coupling", "e"))
                if preset is None else preset.coupling)
    gf = extract_gauge_field(specs[0], coupling)
    radius = _number(_merged(args, "radius", 1.0), "--radius")
    if not radius > 0:
        raise ConfigError("--radius must be positive")
    center_text = str(_merged(args, "center", "0,0,0"))
    center = tuple(_number(v, "--center")
                   for v in center_text.replace(",", " ").split())
    if len(center) != 3:
        raise ConfigError("--center needs three components")
    points = _number(_merged(args, "points", 256), "--points", int)
    if points < 8:
        raise ConfigError("--points must be at least 8")
    constants = _parse_constants(_merged(args, "constants"))
    value = holonomy(gf, radius, center=center, points=points,
                     constants=constants)
    payload = {"command": "holonomy", "model": name, "radius": radius,
               "center": list(center), "points": points, "value": value}
    _dump(payload, _merged(args, "out"))
    print(f"holonomy = {value!r}", file=sys.stderr)
    return EXIT_OK


# Each command, and each helper it calls, imports the modules it runs in its
# own body, so that an invocation loads only what it uses.  These imports
# defer loading; none of them hides an import cycle.
COMMANDS = {
    "deform": cmd_deform,
    "commutator": cmd_commutator,
    "gauge": cmd_gauge,
    "verify": cmd_verify,
    "spectrum": cmd_spectrum,
    "holonomy": cmd_holonomy,
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error like any other bad input: one line, exit 2."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="warpconv",
        description="Warped-convolution deformations: symbolic identity "
                    "suite, gauge fields, spectra and holonomies.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--model", help="preset model name")
        p.add_argument("--B", help="inline matrix: 0 | b1,b2,b3 | 9 entries")
        p.add_argument("--Q", help="generator: coordinate | radial:n | transverse")
        p.add_argument("--constants", help="numeric bindings k=v,k=v,...")
        p.add_argument("--coupling", help="coupling constant name, e.g. e or -m")

    p = sub.add_parser("deform", help="deform an operator expression")
    common(p)
    p.add_argument("--expr", help="operand expression (default: the preset "
                                  "base Hamiltonian)")

    p = sub.add_parser("commutator", help="commutator of two expressions")
    common(p)
    p.add_argument("--a", help="left expression")
    p.add_argument("--b", help="right expression")

    p = sub.add_parser("gauge", help="induced gauge field and field strength")
    common(p)

    p = sub.add_parser("verify", help="run the symbolic identity suite")
    common(p)
    p.add_argument("--seed", type=int,
                   help="echoed in the report; the suite draws nothing at random")
    p.add_argument("--select", help="comma-separated name prefixes; only the "
                                    "checks they name are computed")
    p.add_argument("--negative-control", dest="negative_control",
                   action="store_true", default=None,
                   help="inject a wrong-sign commutator route (must fail)")

    p = sub.add_parser("spectrum", help="grid eigenvalues of a preset")
    common(p)
    p.add_argument("--seed", type=int, help="eigensolver start-vector seed "
                                            "(default 0)")
    p.add_argument("--grid", help="N,L (points per axis, box extent)")
    p.add_argument("--k", type=int, help="number of eigenvalues (<= 64)")
    p.add_argument("--format", choices=("json", "csv"), help="output format")

    p = sub.add_parser("holonomy", help="loop integral of the gauge field")
    common(p)
    p.add_argument("--radius", type=float, help="loop radius")
    p.add_argument("--center", help="c1,c2,c3 (loop center)")
    p.add_argument("--points", type=int, help="quadrature points")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args._config = _read_config(args.config) if args.config else {}
        return COMMANDS[args.command](args)
    except (ConfigError, ParseError, UnboundConstantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnsupportedDegreeError, UnsupportedOperandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (NonConvergenceError, SingularLoopError, SingularPointError,
            SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WarpconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
