"""Batch command-line front end.

Each command takes --config, --out and only the options it reads:

    deform      --model --B --Q --expr
    commutator  --a --b
    gauge       --model --B --Q --coupling
    verify      --seed --select --negative-control
    spectrum    --model --seed --grid --k --constants --format
    holonomy    --model --B --Q --coupling --constants --radius --center
                --points

--B, --Q and --coupling define an inline deformation; a --model preset
brings its own, so with --model any of them exits 2.  --Q and --coupling
are read as the catalog's rows are, by the readers of ``parsing``.  --Q is
the generator triple: three comma-separated expressions Q1, Q2, Q3, each a
real function of the positions (default ``X1, X2, X3``), for example
``--Q "X1*rho^(-1), X2*rho^(-1), X3*rho^(-1)"``; --coupling is a constant
name the grammar knows, or its negation (default ``e``); anything else
exits 2.  Each deformation of a preset has its own source's coupling:
``gauge`` reports it per field, and its top-level ``coupling`` is the first
field's.  ``holonomy`` takes one deformation: a preset with two
(``combined_*``) exits 3.  A value that starts with '-' is written in the
one-token form, ``--coupling=-m``, ``--B=-1,0,0`` or ``--Q=-X1,X2,X3``:
argparse reads a separate ``-m`` as another flag.  --constants binds
values to constant names the grammar knows (``e=1,B=1``); any other name,
such as ``X1`` or ``q``, exits 2, since no expression can hold it.

A config file is a list of flags: each ``key = value`` line is the one
token ``--key=value`` (``_`` in a key reads as ``-``), and a switch's
``true`` is the bare flag, its ``false`` nothing; lines starting with #
are skipped.  The tokens go between the command name and the command-line
flags, so flags win, and the command's parser checks them as flags: an
unknown or abbreviated key, a ``config`` key (files do not nest), a bad
value, a line without '=' or an unreadable file exits 2.

Output is canonical JSON (sorted keys, fixed separators), byte-identical
across runs with the same options, save that the last digits ``spectrum``
prints also depend on the BLAS thread count (ROADMAP item 17); human-readable
summaries go to stderr.

Exit codes: 0 success, 1 failed identity; 2, 3 and 4 by the error's class,
as the table in ``warpconv.errors`` says, and 4 also for a value beyond the
float range, an exact number too long to print, running out of memory or
a ``spectrum`` without numpy or scipy installed.  argparse converts no
option value, as it would swallow a converter's ConfigError, a ValueError:
the commands read the text, so a malformed number exits 2 ahead of any exit
3 or 4.  The library refuses each bad value (a preset name, a grid, k, a
loop's radius, center or points, a --B that is not skew).

Building the parser and reading the options load no symbolic module: each
command imports the modules it runs when it runs, so ``commutator`` loads
only the parser and the exact kernel, the catalog loads the parser to read
its rows, and only ``spectrum`` loads numpy and scipy, after the checks
that can refuse its input.  No module of the package imports
``dataclasses``, which would load ``inspect``, ``ast``, ``dis`` and
``tokenize``; only scipy does, so only ``spectrum`` loads them.

One command per process: ``main()``, which runs the process's own command
line (``python -m warpconv.cli`` and the ``warpconv`` console script),
turns the cyclic garbage collector off for the command and freezes the
heap when it ends.  No collection then runs while numpy, scipy and the
command load and run (a landau N = 32 spectrum made 87 of them), and the
collection at interpreter exit skips the frozen heap.  A command leaves
little cyclic garbage, and the process frees it on exit: a child's peak
RSS moved by at most 0.4 MB (full ``verify``, ``commutator`` of
``(X1+P1)^30`` and of ``(X1+P1+X2+P2)^10``, ``gauge`` and a landau N = 32
``spectrum``).  ``main(argv)`` with a list, for a caller in a process that
does more, leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import ConfigError, UnsupportedOperandError, WarpconvError

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4


def _number(value: str, option: str, kind=float):
    """kind(value); text that is not a number written in ASCII is a
    ConfigError (Python's int and float also read other scripts' digits);
    the library call it goes to decides whether a float may be nan or inf."""
    try:
        if not value.isascii():
            raise ValueError(value)
        return kind(value)
    except (ValueError, ZeroDivisionError) as exc:
        wanted = "an integer" if kind is int else "a number"
        raise ConfigError(f"{option} needs {wanted}, got {value!r}") from exc


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generator with integers >= 0 only."""
    seed = _number(text, "--seed", int)
    if seed < 0:
        raise ConfigError(f"--seed needs an integer >= 0, got {text!r}")
    return seed


# Every option with its default, declared once, and the options each command
# reads besides --config and --out.
OPTIONS = {
    "--config": {"help": "file of key = value lines, read as --key=value"},
    "--out": {"help": "output path (default stdout)"},
    "--model": {"help": "preset model name"},
    "--B": {"help": "inline matrix: 0 | b1,b2,b3 | 9 entries"},
    "--Q": {"help": "inline generator Q1,Q2,Q3, real functions of the "
                    "positions, e.g. X1,X2,X3 (default) or, negated, "
                    "--Q=-X1,X2,X3"},
    "--coupling": {"help": "inline coupling, a constant name such as e "
                           "(default) or, negated, --coupling=-m"},
    "--constants": {"help": "numeric bindings k=v,k=v,... of the "
                            "grammar's constant names"},
    "--expr": {"help": "operand (default: the preset base Hamiltonian)"},
    "--a": {"help": "left expression"},
    "--b": {"help": "right expression"},
    # The suite draws nothing at random; verify echoes the seed for the schema.
    "--seed": {"default": "0",
               "help": "eigensolver start-vector seed; verify echoes it"},
    "--select": {"help": "comma-separated name prefixes; only the checks "
                         "they name are computed"},
    "--negative-control": {"action": "store_true", "help": "inject a "
                           "wrong-sign commutator route (must fail)"},
    "--grid": {"default": "64,10", "help": "N,L: points per axis, box extent"},
    "--k": {"default": "16", "help": "eigenvalues wanted (<= 64)"},
    "--format": {"choices": ("json", "csv"), "default": "json"},
    "--radius": {"default": "1.0", "help": "loop radius"},
    "--center": {"default": "0,0,0", "help": "c1,c2,c3 (loop center)"},
    "--points": {"default": "256", "help": "quadrature points"},
}
COMMAND_OPTIONS = {
    "deform": ("deform an operator expression",
               ("--model", "--B", "--Q", "--expr")),
    "commutator": ("commutator of two expressions", ("--a", "--b")),
    "gauge": ("induced gauge field and field strength",
              ("--model", "--B", "--Q", "--coupling")),
    "verify": ("run the symbolic identity suite",
               ("--seed", "--select", "--negative-control")),
    "spectrum": ("grid eigenvalues of a preset", ("--model", "--seed",
                 "--grid", "--k", "--constants", "--format")),
    "holonomy": ("loop integral of the gauge field", ("--model", "--B", "--Q",
                 "--coupling", "--constants", "--radius", "--center",
                 "--points")),
}


def _dump(result: dict | str, out: str | None) -> None:
    """Write a dict as strict JSON, or a ready text as it is; a non-finite
    number in a dict, which JSON cannot carry, is a numeric failure."""
    payload = result
    if isinstance(result, dict):
        try:
            payload = json.dumps(result, sort_keys=True, separators=(",", ":"),
                                 allow_nan=False) + "\n"
        except ValueError as exc:
            raise WarpconvError("the result is not finite") from exc
    if not out:
        sys.stdout.write(payload)
        return
    try:
        with open(out, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write --out: {exc}") from exc


def _config_flags(path: str) -> list[str]:
    """The flags a config file stands for: ``--key=value`` per line, one
    token each; a switch's ``true`` is the bare flag, its ``false`` none."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise ConfigError(f"{path}:{lineno}: config files do not nest")
        if OPTIONS.get(flag, {}).get("action") != "store_true":
            flags.append(f"{flag}={value}")
        elif value not in ("true", "false"):
            raise ConfigError(
                f"{path}:{lineno}: {key} is true or false, got {value!r}")
        elif value == "true":
            flags.append(flag)
    return flags


def _parse_constants(text: str | None) -> dict[str, float]:
    from .scalars import DEFAULT_CONSTANTS
    out = {}
    for chunk in (text or "").replace(",", " ").split():
        if "=" not in chunk:
            raise ConfigError(f"constants entries are name=value, got {chunk!r}")
        name, val = chunk.split("=", 1)
        if name not in DEFAULT_CONSTANTS:
            raise ConfigError(f"unknown constant {name!r}; the grammar knows "
                              f"{', '.join(DEFAULT_CONSTANTS)}")
        if name in out:
            raise ConfigError(f"constant {name} is given twice")
        try:
            out[name] = float(_number(val, f"constant {name}", Fraction))
        except OverflowError as exc:
            raise ConfigError(f"constant {name} is beyond the float range, "
                              f"got {val!r}") from exc
    return out


def _parse_matrix(text: str):
    from .deform import axial
    vals = [_number(v, "--B", Fraction)
            for v in text.replace(",", " ").split()]
    if len(vals) == 1 and vals[0] == 0:
        return (0, 0, 0)
    if len(vals) == 3:
        return vals
    if len(vals) == 9:
        return axial([vals[0:3], vals[3:6], vals[6:9]])
    raise ConfigError("--B needs 1 (zero), 3 (axial) or 9 (row-major) entries")


def _resolve_model(args) -> tuple[str | None, list, object]:
    """(name, (spec, coupling) pairs, preset-or-None) from --model, whose
    specs take their own sources' couplings, or from --B/--Q/--coupling."""
    from .deform import DeformationSpec
    from .models import get_preset
    from .parsing import parse_coupling, parse_triple
    if args.model is not None:
        inline = [flag for flag in ("--B", "--Q", "--coupling")
                  if getattr(args, flag[2:], None) is not None]
        if inline:
            raise ConfigError(f"--model excludes {' and '.join(inline)}, "
                              "which define an inline deformation")
        preset = get_preset(args.model)
        return preset.name, preset.coupled_specs(), preset
    if args.B is None:
        raise ConfigError("need --model or an inline --B matrix")
    spec = DeformationSpec(_parse_matrix(args.B), parse_triple(
        "X1, X2, X3" if args.Q is None else args.Q, "--Q", "Q"))
    coupling = getattr(args, "coupling", None)  # deform has no --coupling
    return None, [(spec, parse_coupling(
        "e" if coupling is None else coupling))], None


def _expression_payload(expr) -> dict:
    return {"expression": expr.to_json_dict(), "pretty": str(expr)}


def cmd_deform(args) -> int:
    from .deform import deform_sequence
    from .operators import OperatorExpr
    name, pairs, preset = _resolve_model(args)
    if args.expr is not None:
        from .parsing import parse
        operand = parse(args.expr)
    elif preset is not None:
        operand = preset.base_hamiltonian()
    else:
        operand = OperatorExpr.free_hamiltonian()
    deformed = deform_sequence(operand, [spec for spec, _ in pairs])
    payload = {
        "command": "deform",
        "model": name,
        "operand": str(operand),
        **_expression_payload(deformed),
    }
    if preset is not None:
        payload["metadata"] = preset.metadata()
    _dump(payload, args.out)
    print(f"deformed: {deformed}", file=sys.stderr)
    return EXIT_OK


def cmd_commutator(args) -> int:
    from .parsing import parse
    if not args.a or not args.b:
        raise ConfigError("commutator needs --a and --b expressions")
    a, b = parse(args.a), parse(args.b)
    comm = a.commutator(b)
    payload = {"command": "commutator", "a": str(a), "b": str(b),
               **_expression_payload(comm)}
    _dump(payload, args.out)
    print(f"[a, b] = {comm}", file=sys.stderr)
    return EXIT_OK


def cmd_gauge(args) -> int:
    from .deform import skew
    from .gauge import bianchi_check, extract_gauge_field, field_strength
    from .operators import OperatorExpr
    name, pairs, _ = _resolve_model(args)
    fields = []
    for spec, coupling in pairs:
        a = extract_gauge_field(spec, coupling)
        b = field_strength(spec, coupling)
        fields.append({
            "coupling": str(coupling),
            "components": [str(c) for c in a],
            "components_json": [OperatorExpr.from_coord(c).to_json_dict()
                                for c in a],
            "field_strength": [[str(f) for f in row] for row in skew(b)],
            "bianchi_zero": bool(bianchi_check(b)),
        })
    payload = {"command": "gauge", "model": name,
               "coupling": fields[0]["coupling"], "fields": fields}
    _dump(payload, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite
    seed = _seed(args.seed)
    select = None
    if args.select is not None:
        select = [s.strip() for s in args.select.split(",") if s.strip()]
    report = run_suite(select=select, negative_control=args.negative_control)
    if not report["checks"]:
        raise ConfigError(f"--select {args.select!r} matches no check")
    payload = {"command": "verify", "seed": seed, **report}
    _dump(payload, args.out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    print(f"verify: {len(report['checks'])} checks, "
          f"{len(failed)} failed", file=sys.stderr)
    for nm in failed:
        print(f"  FAIL {nm}", file=sys.stderr)
    return EXIT_OK if report["all_pass"] else EXIT_IDENTITY


def cmd_spectrum(args) -> int:
    from .models import GridSpec, check_levels, get_preset, grid_inputs
    seed, k = _seed(args.seed), _number(args.k, "--k", int)
    if args.model is None:
        raise ConfigError("spectrum needs --model (a preset name)")
    preset = get_preset(args.model)
    parts = args.grid.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError("--grid needs N,L")
    points = _number(parts[0], "--grid N", int)
    grid = GridSpec(extent=_number(parts[1], "--grid L"), points=points)
    constants = _parse_constants(args.constants)
    # The refusals of eigenvalues() and discretize(), before numpy loads.
    check_levels(k, points * points)
    grid_inputs(preset.shift, grid, constants)
    try:
        from .spectra import discretize, eigenvalues
    except ModuleNotFoundError as exc:
        if (exc.name or "").partition(".")[0] not in ("numpy", "scipy"):
            raise
        raise WarpconvError(f"spectrum needs numpy and scipy; cannot import "
                            f"{exc.name}") from exc
    matrix, info = discretize(preset.shift, preset.potential, grid, constants)
    result = eigenvalues(matrix, k, info, seed=seed)
    _dump(result.to_csv() if args.format == "csv" else {
        "command": "spectrum", "model": preset.name, **result.to_json_dict()},
        args.out)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def cmd_holonomy(args) -> int:
    from .gauge import extract_gauge_field, holonomy
    radius = _number(args.radius, "--radius")
    points = _number(args.points, "--points", int)
    center = tuple(_number(v, "--center")
                   for v in args.center.replace(",", " ").split())
    constants = _parse_constants(args.constants)
    name, pairs, _ = _resolve_model(args)
    if len(pairs) != 1:
        raise UnsupportedOperandError(
            f"holonomy integrates one deformation; {name} has {len(pairs)}")
    a = extract_gauge_field(*pairs[0])
    value = holonomy(a, radius, center=center, points=points,
                     constants=constants)
    payload = {"command": "holonomy", "model": name, "radius": radius,
               "center": list(center), "points": points, "value": value}
    _dump(payload, args.out)
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
        if message.endswith("expected one argument"):
            # argparse reads a value that starts with '-' as another flag.
            flag = message.split()[1].rstrip(":")
            message += (f"; a value that starts with '-' takes the one-token "
                        f"form {flag}=VALUE")
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="warpconv",
        description="Warped-convolution deformations: symbolic identity "
                    "suite, gauge fields, spectra and holonomies.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMAND_OPTIONS.items():
        # No prefix matching: a flag or config key names its option in full.
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        for flag in ("--config", "--out", *options):
            p.add_argument(flag, **OPTIONS[flag])
    return ap


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]):
    """The parsed options.  argparse stores [] for ``--flag=--``; no option
    takes several values, so a list is an option without a value."""
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        if isinstance(value, list):
            raise ConfigError(f"--{dest.replace('_', '-')} needs a value")
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # The process's own command line: see "One command per process" in
        # the module docstring.
        gc.disable()
        try:
            return main(sys.argv[1:])
        finally:
            gc.freeze()
    argv = list(argv)
    try:
        parser = build_parser()
        args = _parse_args(parser, argv)
        if args.config:
            at = argv.index(args.command) + 1
            args = _parse_args(
                parser, argv[:at] + _config_flags(args.config) + argv[at:])
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedOperandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    # Numeric failures: every other package error, and the builtins below.
    except WarpconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_NUMERIC
    except OverflowError:
        print("error: a value is beyond the float range", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        # An exact result the interpreter refuses to print: its integers
        # have more digits than sys.get_int_max_str_digits().
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an exact number in the result has more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
