import argparse
import gc
import json
import os
import subprocess
import sys

import pytest

import warpconv
from warpconv import cli, errors, spectra, verify

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
NOT_UTF8 = os.path.join(CONFIGS, "not_utf8.cfg")
SELECT_WITHOUT_VALUE = os.path.join(CONFIGS, "select_without_value.cfg")
NESTED_CONFIG = os.path.join(CONFIGS, "nested_config.cfg")

PUBLIC_NAMES = [
    "ConfigError", "CoordFunction", "DeformationSpec", "GridSpec",
    "InternalInconsistencyError", "ModelPreset", "NonConvergenceError",
    "NonPositiveParameterError", "OperatorExpr", "PRESETS", "ParseError", "QC",
    "SingularLoopError", "SingularPointError",
    "SpectrumResult", "UnboundConstantError",
    "UnknownSymbolError", "UnsupportedDegreeError", "UnsupportedOperandError",
    "WarpconvError", "bianchi_check", "coords", "curl",
    "deform", "deform_coordinate",
    "deform_operator", "deform_sequence", "discretize", "eigenvalues",
    "errors", "extract_gauge_field", "field_strength", "gauge", "get_preset",
    "guiding_center", "holonomy",
    "lorentz_force", "models", "momentum_shift", "operators", "parse",
    "parsing", "rieffel_product", "scalars",
    "spectra", "uncertainty_area_symbolic",
]

# Runs one command in a fresh process and prints its exit code and the
# warpconv, numpy, scipy, dataclasses and inspect modules it loaded.
LOADED_RUN = """
import contextlib, io, json, sys
import warpconv.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --version
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0]
                               in ("warpconv", "numpy", "scipy", "dataclasses",
                                   "inspect"))]))
"""

SYMBOLIC_MODULES = ("warpconv.scalars", "warpconv.coords", "warpconv.operators",
                    "warpconv.parsing", "warpconv.deform", "warpconv.gauge",
                    "warpconv.models", "warpconv.verify", "warpconv.spectra")
# numpy, scipy, and dataclasses and inspect, which no warpconv module
# imports: only scipy loads them.
NUMERIC = ("numpy", "scipy", "dataclasses", "inspect")


@pytest.mark.parametrize("argv, code, unloaded", [
    (["--version"], 0, SYMBOLIC_MODULES + NUMERIC),
    (["commutator", "--a", "X1", "--b", "P1"], 0,
     SYMBOLIC_MODULES[4:] + NUMERIC),
    (["deform", "--model", "landau"], 0, NUMERIC),
    (["gauge", "--model", "landau"], 0, NUMERIC),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1"], 0, NUMERIC),
    (["verify", "--select", "model"], 0, NUMERIC),
    (["spectrum", "--model", "lense_thirring", "--grid", "32,10",
      "--constants", "m=1,Omega=1"], 3, NUMERIC),
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m=0"], 2, NUMERIC),
    (["spectrum", "--model", "landau", "--grid", "8,10", "--k", "2",
      "--constants", "e=1,B=1"], 2, NUMERIC),
], ids=["version", "commutator", "deform", "gauge", "holonomy", "verify",
        "refused_spectrum", "refused_mass", "unbound_mass"])
def test_command_loads_only_what_it_runs(argv, code, unloaded):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", LOADED_RUN, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert exit_code == code
    assert [m for m in loaded
            if m in unloaded or m.split(".")[0] in unloaded] == []


# Runs one command with a module of the numeric stack blocked, as if it
# were not installed.
BLOCKED_RUN = """
import sys
sys.modules[sys.argv[1]] = None
import warpconv.cli as cli
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("blocked, model, code", [
    ("numpy", "free", cli.EXIT_NUMERIC),
    ("scipy", "free", cli.EXIT_NUMERIC),
    # A refusal made before the import keeps its code.
    ("numpy", "lense_thirring", cli.EXIT_UNSUPPORTED),
])
def test_spectrum_without_the_numeric_stack_refuses(blocked, model, code):
    argv = ["spectrum", "--model", model, "--grid", "8,10", "--k", "2",
            "--constants", "m=1,Omega=1"]
    proc = subprocess.run([sys.executable, "-c", BLOCKED_RUN, blocked, *argv],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, "")
    assert proc.stderr.startswith("error: "), proc.stderr
    assert proc.stderr.count("\n") == 1, proc.stderr
    if code == cli.EXIT_NUMERIC:
        assert f"cannot import {blocked}" in proc.stderr


def test_spectra_names_resolve_from_the_package():
    from warpconv import GridSpec
    assert GridSpec is spectra.GridSpec
    assert warpconv.discretize is spectra.discretize
    with pytest.raises(AttributeError):
        warpconv.no_such_name


def test_public_names_unchanged():
    assert sorted(warpconv.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in warpconv.__all__:
        assert getattr(warpconv, name) is not None, name
    assert warpconv.coords.CoordFunction is warpconv.CoordFunction


@pytest.mark.parametrize("argv, code", [
    (["commutator", "--a", "X1", "--b", "P1"], cli.EXIT_OK),
    (["spectrum", "--model", "landau", "--k", "100",
      "--constants", "e=1,B=1,m=1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--grid", "1,10"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--grid", "x,y"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--grid", "16,nan",
      "--constants", "e=1,B=1,m=1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--grid", "4,10",
      "--constants", "e=1,B=1,m=1"], cli.EXIT_CONFIG),
    (["deform", "--B", "0,1,0,0,0,0,0,0,0"], cli.EXIT_CONFIG),
    (["deform", "--B", "abc"], cli.EXIT_CONFIG),
    (["deform", "--B", "1,2,3", "--Q", "radial:abc"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--radius", "-1"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--radius", "inf",
      "--constants", "e=1,B=1"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--points", "4"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--center", "a,b,c"], cli.EXIT_CONFIG),
    (["deform", "--model", "landau", "--expr", "P1^3"], cli.EXIT_UNSUPPORTED),
    (["holonomy", "--model", "aharonov_bohm", "--center", "0,1,0",
      "--points", "16", "--constants", "e=1,phi_M=1"], cli.EXIT_NUMERIC),
    (["verify", "--select", "modle"], cli.EXIT_CONFIG),
    (["deform", "--model", "landau", "--seed", "1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1", "--b", "P1", "--seed", "1"], cli.EXIT_CONFIG),
    (["gauge", "--model", "landau", "--seed", "1"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--seed", "1"], cli.EXIT_CONFIG),
    (["deform", "--model", "nope"], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1", "--b", "P1", "--out",
      "/nonexistent/dir/x.json"], cli.EXIT_CONFIG),
    (["gauge", "--config", NOT_UTF8], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1", "--b", "P1", "--model", "landau"],
     cli.EXIT_CONFIG),
    (["verify", "--constants", "m=1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--B", "1,2,3", "--grid", "16,10",
      "--k", "2", "--constants", "e=1,B=1,m=1"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "lense_thirring", "--center=0,1,0", "--radius",
      "1", "--points", "8", "--constants", "m=1,Omega=1"], cli.EXIT_NUMERIC),
    (["gauge", "--model", "landau", "--coupling", "zz", "--Q", "bogus"],
     cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--coupling", "e",
      "--constants", "e=1,B=1"], cli.EXIT_CONFIG),
    (["deform", "--model", "landau", "--Q", "transverse"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--B", "1,0,0",
      "--constants", "e=1,B=1"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--rad", "2",
      "--constants", "e=1,B=1"], cli.EXIT_CONFIG),
    # A mass that is not positive, or a hop 1/(2 m h^2) that overflows.
    (["spectrum", "--model", "free", "--constants", "m=0", "--grid", "8,10",
      "--k", "2"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--constants", "m=1", "--grid",
      "3,1e-320", "--k", "2"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--constants", "m=-1", "--grid", "8,10",
      "--k", "2"], cli.EXIT_CONFIG),
    # Constants beyond the float range, and a result that is not finite.
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m=1e400"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "B=1e400"],
     cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1", "--points",
      "8", "--radius", "1e308"], cli.EXIT_NUMERIC),
    # Residuals that overflow fail with one line, on both solver paths.
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m=1e-300"], cli.EXIT_NUMERIC),
    (["spectrum", "--model", "free", "--grid", "20,10", "--k", "2",
      "--constants", "m=1e-300"], cli.EXIT_NUMERIC),
    (["commutator", "--a", "0^-1", "--b", "P1"], cli.EXIT_CONFIG),
    # holonomy integrates one deformation; a combined preset has two.
    (["holonomy", "--model", "combined_constant",
      "--constants", "e=1,B=1,m=1,Omega=5", "--center=0,0.5,0"],
     cli.EXIT_UNSUPPORTED),
    (["holonomy", "--model", "combined_lense_thirring",
      "--constants", "e=1,B=1,m=1,Omega=5", "--center=0,0.5,0"],
     cli.EXIT_UNSUPPORTED),
    # A rational exponent with a zero denominator is a parse error.
    (["commutator", "--a", "r^(1/0)", "--b", "P1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1^(2/0)", "--b", "P1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "e^(1/0)", "--b", "P1"], cli.EXIT_CONFIG),
    # Numbers are ASCII digits: a superscript or another script's digit is
    # an unexpected character.
    (["commutator", "--a", "\u00b2", "--b", "X1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1^\u00b2", "--b", "X1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "2\u00b2", "--b", "X1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "r^(\u00b9/2)", "--b", "X1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "\u0661", "--b", "X1"], cli.EXIT_CONFIG),
    # argparse reads the one-token --flag=-- as a flag without a value.
    (["gauge", "--B=1,0,0", "--coupling=--"], cli.EXIT_CONFIG),
    (["gauge", "--B=--"], cli.EXIT_CONFIG),
    (["deform", "--model=--"], cli.EXIT_CONFIG),
    (["verify", "--seed=--"], cli.EXIT_CONFIG),
    (["verify", "--select=--"], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1", "--b", "P1", "--out=--"], cli.EXIT_CONFIG),
    (["verify", "--select", "model::free", "--config=--"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid=--", "--constants", "m=1"],
     cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "8,10", "--k=--",
      "--constants", "m=1", "--format=--"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--center=--"], cli.EXIT_CONFIG),
    (["verify", "--config", SELECT_WITHOUT_VALUE], cli.EXIT_CONFIG),
    # A seed is an integer >= 0, on both solver paths and for verify.
    (["spectrum", "--model", "landau", "--grid", "20,10", "--k", "2",
      "--constants", "e=1,B=1,m=1", "--seed=-1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--grid", "8,10", "--k", "2",
      "--constants", "e=1,B=1,m=1", "--seed=-1"], cli.EXIT_CONFIG),
    (["verify", "--seed=-5"], cli.EXIT_CONFIG),
    # A constant is bound once, under a name the grammar knows.
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m=1,m=2"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "=1,m=1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m=1,1x=2"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m=1,\u00b5=2"], cli.EXIT_CONFIG),
    # Every numeric option reads ASCII digits only, as the expressions do.
    (["verify", "--select", "adjoint", "--seed", "\u0665"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "\u0662",
      "--constants", "m=1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "\u0668,10", "--k", "2",
      "--constants", "m=1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m=\u0662"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--points", "\u0661\u0660\u0660"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--radius", "\u0661"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--center=\u0660,0,0"], cli.EXIT_CONFIG),
    # Parentheses nest at most parsing.MAX_DEPTH deep; a run of minus signs
    # costs no recursion; an integer literal the interpreter will not read
    # is a parse error.
    (["commutator", "--a", "(" * 200 + "X1" + ")" * 200, "--b", "P1"],
     cli.EXIT_CONFIG),
    (["commutator", "--a=" + "-" * 3000 + "X1", "--b", "P1"], cli.EXIT_OK),
    (["deform", "--model", "landau", "--expr", "(" * 300 + "P1" + ")" * 300],
     cli.EXIT_CONFIG),
    (["commutator", "--a", "1" * 5000, "--b", "P1"], cli.EXIT_CONFIG),
    # Exact numbers with more digits than the interpreter prints, and values
    # beyond the float range, are numeric failures.
    (["commutator", "--a", "2^20000", "--b", "P1"], cli.EXIT_NUMERIC),
    (["commutator", "--a", "3^4000*3^4000*3^4000*X1", "--b", "P1"],
     cli.EXIT_NUMERIC),
    (["deform", "--model", "landau", "--expr", "2^20000*P1"],
     cli.EXIT_NUMERIC),
    (["gauge", "--B", "1e5000,0,0"], cli.EXIT_NUMERIC),
    (["gauge", "--B", "1,0,0", "--Q", "radial:1e5000"], cli.EXIT_CONFIG),
    (["holonomy", "--B", "1e400,0,0", "--constants", "e=1"], cli.EXIT_NUMERIC),
    (["spectrum", "--model", "zeeman", "--grid", "8,10", "--k", "2",
      "--constants", "e=1e200,B=1,m=1"], cli.EXIT_NUMERIC),
    # A grid Hamiltonian with an entry that is not finite, on both solver
    # paths.
    *([["spectrum", "--model", model, "--grid", grid, "--k", "2",
        "--constants", constants], cli.EXIT_NUMERIC]
      for model, constants in (("landau", "e=1,B=1e308,m=1"),
                               ("gravito_constant", "Omega=1e308,m=1"),
                               ("aharonov_bohm", "e=1e308,phi_M=10,m=1"))
      for grid in ("8,10", "20,10")),
    # Refusals of malformed options.
    (["spectrum", "--model", "free", "--grid", "8,10", "--k", "2",
      "--constants", "m"], cli.EXIT_CONFIG),
    (["deform", "--B", "1,2"], cli.EXIT_CONFIG),
    (["deform", "--B", "1,2,3", "--Q", "radial"], cli.EXIT_CONFIG),
    (["gauge", "--B", "1,2,3", "--Q", "bogus"], cli.EXIT_CONFIG),
    (["gauge", "--B", "1,2,3", "--coupling", "1x"], cli.EXIT_CONFIG),
    (["deform"], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1"], cli.EXIT_CONFIG),
    (["spectrum", "--grid", "8,10", "--k", "2", "--constants", "m=1"],
     cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--grid", "8", "--constants", "m=1"],
     cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--grid", "8,10", "--k", "2",
      "--constants", "e=1,B=1"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--center", "0,0"], cli.EXIT_CONFIG),
    # More than 2^16 quadrature points add only roundoff, and time.
    *([["holonomy", "--model", "landau", "--constants", "e=1,B=1",
        "--points", points], cli.EXIT_CONFIG]
      for points in ("65537", "99999999999999999999")),
    # Residuals are bounded relative to the largest diagonal entry, here
    # about 1.06e8, so roundoff of that size passes.
    (["spectrum", "--model", "free", "--grid", "64,0.01", "--k", "16",
      "--constants", "m=1"], cli.EXIT_OK),
    # Text that is not three expressions, such as a generator label of
    # earlier versions, exits 2.
    *([["gauge", "--B", "1,0,0", "--Q", q], cli.EXIT_CONFIG]
      for q in ("coordinate:5", "transverse:abc", "x:1", "rho:2")),
    # An expression that ends too early names the end of input.
    *([["commutator", "--a", a, "--b", "P1"], cli.EXIT_CONFIG]
      for a in ("X1+", "(X1", "X1^(1/2")),
    # A position takes no fractional and no negative exponent.
    (["commutator", "--a", "X1^(1/2)", "--b", "P1"], cli.EXIT_CONFIG),
    (["commutator", "--a", "X1^-1", "--b", "P1"], cli.EXIT_CONFIG),
    # An inline deformation without --expr deforms the free Hamiltonian.
    (["deform", "--B", "0"], cli.EXIT_OK),
    (["deform", "--B", "1,0,0"], cli.EXIT_OK),
    # The library's refusals of the loop and of the grid spectrum.
    (["holonomy", "--model", "landau", "--points", "65537"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--radius=-1"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--constants", "m=1", "--grid", "8,10",
      "--k", "0"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "free", "--constants", "m=1", "--grid", "0,10",
      "--k", "2"], cli.EXIT_CONFIG),
    # A malformed number exits 2 ahead of an exit-3 refusal.
    *([["holonomy", "--model", "combined_constant", option], cli.EXIT_CONFIG]
      for option in ("--points=abc", "--center=0,x,0", "--constants=m=x")),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1",
      "--center", "0,0,nan"], cli.EXIT_CONFIG),
    # A loop of radius 1e-10 about the axis keeps 1e-10 clear of it.
    (["holonomy", "--model", "aharonov_bohm", "--radius", "1e-10",
      "--constants", "e=1,phi_M=1"], cli.EXIT_OK),
    # A small loop moved along x1 stays clear of the axis.
    (["holonomy", "--model", "aharonov_bohm", "--radius", "1e-8",
      "--center=10,0,0", "--constants", "e=1,phi_M=1"], cli.EXIT_OK),
    # A config file that names another config file.
    (["commutator", "--config", NESTED_CONFIG], cli.EXIT_CONFIG),
    # A coupling is a constant the grammar knows: not a position, i, r, a
    # momentum or an unknown name.
    (["gauge", "--B", "1,0,0", "--coupling", "X1"], cli.EXIT_CONFIG),
    (["holonomy", "--B", "1,0,0", "--coupling", "i", "--constants", "i=2"],
     cli.EXIT_CONFIG),
    (["gauge", "--B", "1,0,0", "--coupling", "r"], cli.EXIT_CONFIG),
    (["gauge", "--B", "1,0,0", "--coupling", "P2"], cli.EXIT_CONFIG),
    (["gauge", "--B", "1,0,0", "--coupling", "q"], cli.EXIT_CONFIG),
    # pi is a number, not a constant to bind, whatever the value.
    (["holonomy", "--model", "aharonov_bohm", "--constants",
      "e=1,phi_M=1,pi=3"], cli.EXIT_CONFIG),
    (["holonomy", "--model", "aharonov_bohm", "--constants",
      "e=1,phi_M=1,pi=0"], cli.EXIT_CONFIG),
    (["spectrum", "--model", "aharonov_bohm", "--grid", "8,10", "--k", "2",
      "--constants", "e=1,phi_M=1,m=1,pi=3"], cli.EXIT_CONFIG),
    # A constant bound to 0 under a negative power.
    (["holonomy", "--B", "1,0,0", "--Q", "X1/e, X2, X3", "--constants",
      "e=0"], cli.EXIT_CONFIG),
    # A name no expression can hold: a position, an unknown name, r.
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1,X1=5"],
     cli.EXIT_CONFIG),
    (["holonomy", "--model", "landau", "--constants", "e=1,B=1,q=7"],
     cli.EXIT_CONFIG),
    (["spectrum", "--model", "landau", "--grid", "8,10", "--k", "2",
      "--constants", "e=1,B=1,m=1,r=2"], cli.EXIT_CONFIG),
])
def test_exit_codes(argv, code, capsys):
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if code != cli.EXIT_OK:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert out == ""


# The exit code each error class fixes, as the table in warpconv.errors says.
ERROR_EXIT_CODES = {
    "WarpconvError": cli.EXIT_NUMERIC,
    **dict.fromkeys(("ConfigError", "ParseError", "UnknownSymbolError",
                     "UnboundConstantError", "NonPositiveParameterError"),
                    cli.EXIT_CONFIG),
    **dict.fromkeys(("UnsupportedOperandError", "UnsupportedDegreeError"),
                    cli.EXIT_UNSUPPORTED),
    **dict.fromkeys(("SingularPointError", "InternalInconsistencyError",
                     "NonConvergenceError", "SingularLoopError"),
                    cli.EXIT_NUMERIC),
}


@pytest.mark.parametrize("name", sorted(
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.WarpconvError)))
def test_each_error_class_exits_with_its_code(name, monkeypatch, capsys):
    cls = getattr(errors, name)
    exc = cls("boom", 7) if issubclass(cls, errors.ParseError) else cls("boom")

    def fail(args):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "commutator", fail)
    assert cli.main(["commutator", "--a", "X1", "--b", "P1"]) == \
        ERROR_EXIT_CODES[name]
    assert capsys.readouterr() == ("", f"error: {exc}\n")


def test_out_writes_the_bytes_of_stdout(tmp_path, capsys):
    argv = ["commutator", "--a", "X1", "--b", "P1"]
    assert cli.main(argv) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    path = tmp_path / "commutator.json"
    assert cli.main([*argv, "--out", str(path)]) == cli.EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == stdout.encode()


# numpy names the allocation; a failed allocation in C has no message.
@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 2.98 GiB", "out of memory: Unable to allocate 2.98 GiB"),
    ("", "out of memory")])
def test_out_of_memory_is_a_numeric_failure(message, line, monkeypatch,
                                            capsys):
    def exhausted(*args):
        raise MemoryError(message)
    monkeypatch.setattr(spectra, "discretize", exhausted)
    assert cli.main(["spectrum", "--model", "free", "--grid", "20000,10",
                     "--k", "2", "--constants", "m=1"]) == cli.EXIT_NUMERIC
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {line}\n")


OPTIONS_READ = {
    "deform": "--config --out --model --B --Q --expr",
    "commutator": "--config --out --a --b",
    "gauge": "--config --out --model --B --Q --coupling",
    "verify": "--config --out --seed --select --negative-control",
    "spectrum": "--config --out --model --seed --grid --k --constants "
                "--format",
    "holonomy": "--config --out --model --B --Q --coupling --constants "
                "--radius --center --points",
}


def test_each_command_takes_only_the_options_it_reads():
    [sub] = [action for action in cli.build_parser()._actions
             if isinstance(action, argparse._SubParsersAction)]
    offered = {command: [option for action in parser._actions
                         if action.dest != "help"
                         for option in action.option_strings]
               for command, parser in sub.choices.items()}
    assert offered == {command: options.split()
                       for command, options in OPTIONS_READ.items()}
    assert sum(map(len, offered.values())) == 39


# A malformed value of each option that takes one, and the start of the rule
# its refusal names.
MALFORMED = {
    "--config": ("/nonexistent.cfg", "cannot read config /nonexistent.cfg"),
    "--out": ("/nonexistent/dir/x.json", "cannot write --out"),
    "--model": ("nope", "unknown model preset 'nope'"),
    "--B": ("abc", "--B needs a number, got 'abc'"),
    "--Q": ("X1, X2", "--Q needs three comma-separated expressions"),
    "--coupling": ("1x", "coupling must be a constant name, got '1x'"),
    "--constants": ("m", "constants entries are name=value, got 'm'"),
    "--expr": ("X1+", "unexpected end of input"),
    "--a": ("X1+", "unexpected end of input"),
    "--b": ("X1+", "unexpected end of input"),
    "--seed": ("abc", "--seed needs an integer, got 'abc'"),
    "--select": ("modle", "--select 'modle' matches no check"),
    "--grid": ("x,10", "--grid N needs an integer, got 'x'"),
    "--k": ("abc", "--k needs an integer, got 'abc'"),
    "--format": ("xml", "argument --format: invalid choice: 'xml'"),
    "--radius": ("abc", "--radius needs a number, got 'abc'"),
    "--center": ("0,x,0", "--center needs a number, got 'x'"),
    "--points": ("abc", "--points needs an integer, got 'abc'"),
}
# Valid options of each command; an inline --B makes way for a --model.
VALID_FLAGS = {
    "deform": {"--B": "1,0,0"},
    "commutator": {"--a": "X1", "--b": "P1"},
    "gauge": {"--B": "1,0,0"},
    "verify": {"--select": "adjoint"},
    "spectrum": {"--model": "free", "--grid": "8,10", "--k": "2",
                 "--constants": "m=1"},
    "holonomy": {"--B": "1,0,0", "--constants": "e=1"},
}


@pytest.mark.parametrize("command, option, in_config", [
    (command, option, in_config)
    for command, (_, options) in cli.COMMAND_OPTIONS.items()
    for option in ("--config", "--out", *options)
    if option in MALFORMED
    for in_config in ((False,) if option == "--config" else (False, True))])
def test_a_malformed_value_names_its_rule(command, option, in_config,
                                          tmp_path, capsys):
    value, rule = MALFORMED[option]
    drop = {option, "--B"} if option == "--model" else {option}
    argv = [command] + [f"{flag}={v}" for flag, v in
                        VALID_FLAGS[command].items() if flag not in drop]
    if in_config:
        path = tmp_path / "run.cfg"
        path.write_text(f"{option[2:]} = {value}\n")
        argv += ["--config", str(path)]
    else:
        argv.append(f"{option}={value}")
    errs = []
    for _ in range(2):
        assert cli.main(argv) == cli.EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {rule}"), err
        assert err.count("\n") == 1, err
        assert "functools" not in err and " at 0x" not in err, err
        errs.append(err)
    assert errs[0] == errs[1]


def test_argparse_converts_no_option_value():
    # A ConfigError is a ValueError, which argparse swallows in a converter.
    assert [flag for flag, spec in cli.OPTIONS.items() if "type" in spec] == []
    assert all(isinstance(spec.get("default", ""), str)
               for spec in cli.OPTIONS.values())


def test_a_malformed_seed_is_refused_before_the_suite_runs(monkeypatch,
                                                          capsys):
    def run_suite(**kwargs):
        raise AssertionError("the suite ran")
    monkeypatch.setattr(verify, "run_suite", run_suite)
    assert cli.main(["verify", "--seed", "x"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "error: --seed needs an integer, got 'x'\n"


RADIAL_3_2 = "X1*r^(-3/2), X2*r^(-3/2), X3*r^(-3/2)"
TRANSVERSE = "X1*rho^(-1), X2*rho^(-1), X3*rho^(-1)"
SPECTRUM_FLAGS = ["--model", "landau", "--grid", "20,10", "--k", "8",
                  "--constants", "e=1,B=1,m=1"]
SPECTRUM_CONFIG = ("model = landau\ngrid = 20,10\nk = 8\n"
                   "constants = e=1,B=1,m=1\n")


@pytest.mark.parametrize("command, config, flags", [
    ("spectrum", "# a comment\n\n" + SPECTRUM_CONFIG, SPECTRUM_FLAGS),
    ("commutator", "a = -X1\nb = P1 * X2\n", ["--a=-X1", "--b", "P1 * X2"]),
    ("holonomy", "B = 1,0,0\ncoupling = -m\ncenter = -1,0,0\n"
     "constants = m=2\n", ["--B", "1,0,0", "--coupling=-m",
                            "--center=-1,0,0", "--constants", "m=2"]),
    # A --Q triple reads as the flag, whatever its spelling, and a leading
    # minus takes the one-token form.
    *(("gauge", f"B = 1,0,0\nQ = {q}\n", ["--B", "1,0,0", *flag])
      for q, flag in (
          ("X1, X2, X3", []),
          ("X1,X2,X3", ["--Q", "X1, X2, X3"]),
          ("X1/r, X2/r, X3/r", ["--Q", "X1*r^(-1), X2*r^(-1), X3*r^(-1)"]),
          ("X1/rho,X2/rho,X3/rho", ["--Q", TRANSVERSE]),
          ("-X1, X2, X3", ["--Q=-X1, X2, X3"]))),
])
def test_config_file_reads_as_flags(command, config, flags, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_OK
    from_config = capsys.readouterr().out
    assert cli.main([command, *flags]) == cli.EXIT_OK
    assert from_config == capsys.readouterr().out


@pytest.mark.parametrize("q, message", [
    ("X1, X2", "--Q needs three comma-separated expressions"),
    ("X1, X2,", "--Q Q3: unexpected end of input"),
    ("X1, x2, X3", "--Q Q2: unknown symbol 'x2'"),
    ("X1, P2, X3", "--Q Q2 = 'P2' is not a real function of the positions"),
    ("i*X1, X2, X3", "--Q Q1 = 'i*X1' is not a real function"),
])
def test_generator_refusals_name_the_component(q, message, capsys):
    assert cli.main(["gauge", "--B", "1,0,0", "--Q", q]) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}"), err
    assert err.count("\n") == 1


def test_generator_labels_print_different_fields(capsys):
    printed = []
    for generator in ([], ["--Q", RADIAL_3_2], ["--Q", TRANSVERSE]):
        assert cli.main(["gauge", "--B", "1,0,0", *generator]) == cli.EXIT_OK
        printed.append(capsys.readouterr().out)
    assert len(set(printed)) == 3


def test_documented_negative_values_parse(capsys):
    # The --coupling help's negated coupling, and the one-token form the
    # module docstring gives for any value that starts with '-'.
    example = cli.OPTIONS["--coupling"]["help"].split()[-1]
    assert cli.main(["gauge", "--B=-1,0,0", example]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["coupling"] == "-m"
    assert cli.main(["commutator", "--a=-X1", "--b", "P1"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["pretty"] == "-i"
    assert cli.main(["holonomy", "--model", "landau", "--center=-1,0,0",
                     "--constants", "e=1,B=1"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["center"] == [-1.0, 0.0, 0.0]


def test_documented_generator_forms_parse(capsys):
    # The --Q help's negated triple and the module docstring's example.
    example = cli.OPTIONS["--Q"]["help"].split()[-1]
    quoted = cli.__doc__.split('--Q "')[1].split('"')[0]
    for flag in (example, f"--Q={quoted}"):
        assert cli.main(["gauge", "--B", "1,0,0", flag]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_a_separate_negative_value_names_the_one_token_form(capsys):
    # argparse reads "-1,0,0" as another flag; the error says how to write it.
    assert cli.main(["gauge", "--B", "-1,0,0"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--B=" in err, err


def test_flags_override_the_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(SPECTRUM_CONFIG)
    assert cli.main(["spectrum", "--config", str(path), "--k", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 4


# Each valid but for the last line the test adds, which must not be dropped.
VALID_CONFIG = {
    "spectrum": ("model = landau\ngrid = 16,10\nk = 2\n"
                 "constants = e=1,B=1,m=1\n"),
    "holonomy": "model = landau\nconstants = e=1,B=1\n",
}


@pytest.mark.parametrize("command, line", [
    ("spectrum", "radius = 2"), ("spectrum", "model landau"),
    ("spectrum", "k = 2.5"), ("spectrum", "format = xml"), ("spectrum", None),
    ("holonomy", "rad = 2"),  # not read as radius = 2
    ("holonomy", "config = /nonexistent.cfg"),  # not silently ignored
], ids=["unknown_key", "no_equals", "fractional_k", "unknown_format",
        "missing_file", "abbreviated_key", "nested_config"])
def test_config_errors(command, line, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    if line is not None:
        path.write_text(f"{VALID_CONFIG[command]}{line}\n")
    assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("value, code", [
    ("true", cli.EXIT_IDENTITY), ("false", cli.EXIT_OK),
    ("yes", cli.EXIT_CONFIG),
])
def test_negative_control_in_config(value, code, tmp_path, capsys):
    path = tmp_path / "verify.cfg"
    path.write_text(f"negative_control = {value}\n"
                    "select = gauge_cross_check::landau\n")
    assert cli.main(["verify", "--config", str(path)]) == code
    out = capsys.readouterr().out
    if code != cli.EXIT_CONFIG:
        assert json.loads(out)["negative_control"] is (value == "true")


def test_spectrum_csv_rows_round_trip_to_the_json_run(capsys):
    argv = ["spectrum", "--model", "landau", "--grid", "12,10", "--k", "4",
            "--constants", "e=1,B=1,m=1"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert cli.main([*argv, "--format", "csv"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "index,eigenvalue,residual"
    assert rows == [f"{i},{ev!r},{res!r}" for i, (ev, res) in enumerate(
        zip(report["eigenvalues"], report["residuals"]))]
    assert len(rows) == report["count"] == 4


def test_unknown_preset_lists_the_known_ones(capsys):
    assert cli.main(["gauge", "--model", "nope"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "error: unknown model preset 'nope'; known: aharonov_bohm, ")


def test_select_prefixes_are_stripped(capsys):
    assert cli.main(["verify", "--select", "model, gauge_cross_check"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert {name.split("::")[0] for name in names} == {
        "model", "model_linearized", "gauge_cross_check"}


# One run per command; the spectrum grid (400 unknowns) takes the sparse path.
CONTRACT_RUNS = {
    "commutator": ["commutator", "--a", "X1^2*P2", "--b", "P1 + X3/r"],
    "deform": ["deform", "--model", "lense_thirring"],
    "gauge": ["gauge", "--model", "combined_constant"],
    "verify": ["verify", "--seed", "7"],
    "spectrum": ["spectrum", "--model", "landau", "--grid", "20,10",
                 "--k", "8", "--constants", "e=1,B=1,m=1"],
    "holonomy": ["holonomy", "--model", "aharonov_bohm",
                 "--constants", "e=1,phi_M=1"],
}


@pytest.fixture(scope="module")
def contract_stdout():
    """Each command's stdout from two concurrent processes whose str hashes
    are salted differently."""
    out = {}
    for command, argv in CONTRACT_RUNS.items():
        procs = [subprocess.Popen(
                     [sys.executable, "-m", "warpconv.cli", *argv],
                     env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
                 for seed in ("1", "2")]
        out[command] = [proc.communicate(timeout=120)[0] for proc in procs]
        assert [proc.returncode for proc in procs] == [0, 0], command
    return out


@pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
def test_stdout_ignores_hash_seed(contract_stdout, command):
    first, second = contract_stdout[command]
    assert first == second


@pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
def test_process_prints_what_main_prints_in_process(contract_stdout, command,
                                                    capsys):
    # A process runs its command with the collector off; main(argv), called
    # in a process that does more, leaves the collector as it finds it.
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(CONTRACT_RUNS[command]) == cli.EXIT_OK
    assert (gc.isenabled(), gc.get_freeze_count()) == before
    assert capsys.readouterr().out.encode() == contract_stdout[command][0]


# Runs a command as the process's own command line, as the console script
# does, and prints the collector's state after it.
PROCESS_RUN = """
import contextlib, gc, io, json, sys
import warpconv.cli as cli
sys.argv = ["warpconv", "commutator", "--a", "X1", "--b", "P1"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main()
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]))
"""


def test_process_command_line_runs_without_the_collector():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROCESS_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, enabled, frozen = json.loads(proc.stdout)
    assert (code, enabled) == (cli.EXIT_OK, False)
    assert frozen > 0


@pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
def test_output_matches_schema(contract_stdout, command):
    jsonschema = pytest.importorskip("jsonschema")
    referencing = pytest.importorskip("referencing")
    schema_dir = os.path.join(os.path.dirname(warpconv.__file__), "schemas")
    schemas = {}
    for fname in os.listdir(schema_dir):
        with open(os.path.join(schema_dir, fname)) as fh:
            schemas[fname[:-len(".json")]] = json.load(fh)
    registry = referencing.Registry().with_resources(
        (schema["$id"], referencing.Resource.from_contents(schema))
        for schema in schemas.values())
    validator = jsonschema.Draft202012Validator(schemas[command],
                                                registry=registry)
    validator.validate(json.loads(contract_stdout[command][0]))


@pytest.mark.parametrize("command", sorted(CONTRACT_RUNS))
def test_schema_properties_are_the_output_keys(contract_stdout, command):
    # A property that no output carries is a key of an earlier format.
    path = os.path.join(os.path.dirname(warpconv.__file__), "schemas",
                        f"{command}.json")
    with open(path) as fh:
        properties = json.load(fh)["properties"]
    assert set(properties) == set(json.loads(contract_stdout[command][0]))
