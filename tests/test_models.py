import hashlib
import json
import os
from fractions import Fraction

import pytest

from warpconv import cli, models
from warpconv.coords import CoordFunction
from warpconv.deform import DeformationSpec, deform_operator, skew
from warpconv.errors import ConfigError, InternalInconsistencyError
from warpconv.gauge import extract_gauge_field
from warpconv.models import (PRESETS, get_preset, guiding_center,
                             uncertainty_area_symbolic)
from warpconv.operators import OperatorExpr
from warpconv.parsing import parse, parse_coupling, parse_triple
from warpconv.scalars import QC

F = Fraction


def test_an_unknown_preset_is_a_config_error():
    with pytest.raises(ConfigError, match="^unknown model preset 'nope'; "
                                          "known: aharonov_bohm, "):
        get_preset("nope")


def test_every_preset_matches_its_reference():
    for name in sorted(PRESETS):
        preset = get_preset(name)
        assert preset.deformed.equals(preset.reference_hamiltonian), name
        if preset.linearized_reference is not None:
            # Equal after the degree >= 2 truncation in the small constants.
            lhs, rhs = (h.truncate_to_linear(preset.small_constants)
                        for h in (preset.deformed,
                                  preset.linearized_reference))
            assert lhs.equals(rhs), name


def _refuse(*args):
    raise AssertionError("built a reference Hamiltonian")


def test_commands_build_no_reference_hamiltonian(monkeypatch, capsys):
    # Only verify's model checks and the tests read the references.
    monkeypatch.setattr(models, "minimal_coupling_hamiltonian", _refuse)
    for name in sorted(PRESETS):
        # holonomy integrates one deformation and refuses a combined preset.
        holonomy_code = (cli.EXIT_UNSUPPORTED if name.startswith("combined_")
                         else cli.EXIT_OK)
        for argv, code in (
                (["deform", "--model", name], cli.EXIT_OK),
                (["gauge", "--model", name], cli.EXIT_OK),
                (["holonomy", "--model", name, "--center=0,0.5,0",
                  "--constants", "e=1,B=1,m=1,Omega=1,phi_M=1"],
                 holonomy_code)):
            assert cli.main(argv) == code, argv
    capsys.readouterr()


def test_landau_reference_is_minimal_coupling():
    preset = get_preset("landau")
    ref = parse(
        "(1/(2*m)) * ((P1*P1) + (P2 - (e*B/2)*X3)*(P2 - (e*B/2)*X3)"
        " + (P3 + (e*B/2)*X2)*(P3 + (e*B/2)*X2))")
    assert preset.deformed.equals(ref)


def test_landau_degenerate_field_reduces_to_free():
    preset = get_preset("landau")
    h = preset.deformed.substitute_symbol("B", CoordFunction.zero())
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_a_coupling_belongs_to_its_source():
    # A preset keeps no coupling of its own: each spec pairs with its own
    # source's g, metadata reports the first, and the potential is the
    # energy V its row writes.
    with_potential = [name for name in PRESETS
                      if get_preset(name).potential is not None]
    assert with_potential == ["zeeman", "gravito_zeeman"]
    for name in PRESETS:
        preset = get_preset(name)
        assert not hasattr(preset, "coupling")
        assert not hasattr(preset, "scalar_potential")
        assert (preset.metadata()["coupling"]
                == str(preset.coupled_specs()[0][1]))
    assert [str(g) for _, g in get_preset("combined_constant")
            .coupled_specs()] == ["e", "-m"]


def test_zeeman_is_landau_plus_coulomb():
    z = get_preset("zeeman")
    lan = get_preset("landau")
    pot = OperatorExpr.from_coord(z.potential)
    assert z.deformed.equals(lan.deformed + pot)


def test_zeeman_potential_unchanged_by_deformation():
    z = get_preset("zeeman")
    deformed_pot = deform_operator(OperatorExpr.from_coord(z.potential),
                                   z.specs[0])
    assert deformed_pot == OperatorExpr.from_coord(z.potential)


def test_zeeman_paramagnetic_term():
    # momentum-linear part equals (eB/2m) L1 with L1 = X2 P3 - X3 P2
    z = get_preset("zeeman")
    h = z.deformed
    lin = OperatorExpr({pm: f for pm, f in h.terms.items() if sum(pm) == 1})
    expected = parse("(e*B/(2*m)) * (X2*P3 - X3*P2)")
    assert lin.equals(expected)


def test_gravito_constant_linearization():
    g = get_preset("gravito_constant")
    deformed = g.deformed
    # exact reference is quadratic; linear truncation matches H0 + h.P
    truncated = deformed.truncate_to_linear(("Omega",))
    lin = parse("(P1*P1 + P2*P2 + P3*P3)/(2*m) + Omega*X3*P2 - Omega*X2*P3")
    assert truncated.equals(lin)


def test_gravito_is_free_at_zero_field():
    g = get_preset("gravito_constant")
    h = g.deformed.substitute_symbol("Omega", CoordFunction.zero())
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_lense_thirring_shift_structure():
    # the induced shift is -(BX)_j / r^3
    lt = get_preset("lense_thirring")
    shift = lt.shift
    bx = [sum((entry * CoordFunction.x(j)
               for j, entry in enumerate(row, start=1)), CoordFunction.zero())
          for row in skew(lt.specs[0].b)]
    r3 = CoordFunction.r_power(-3)
    for j in range(3):
        assert (shift[j] + bx[j] * r3).is_zero()


def test_lense_thirring_zero_inertia():
    lt = get_preset("lense_thirring")
    h = lt.deformed.substitute_symbol("Omega", CoordFunction.zero())
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_combined_order_independence():
    for kind in ("constant", "lense_thirring"):
        preset = get_preset(f"combined_{kind}")
        s1, s2 = preset.specs
        base = preset.base_hamiltonian()
        a = deform_operator(deform_operator(base, s1), s2)
        b = deform_operator(deform_operator(base, s2), s1)
        assert a.equals(b)


def test_combined_reduces_to_single_model():
    preset = get_preset("combined_constant")
    h = preset.deformed
    assert h.substitute_symbol("Omega", CoordFunction.zero()).equals(
        get_preset("landau").deformed)
    assert h.substitute_symbol("B", CoordFunction.zero()).equals(
        get_preset("gravito_constant").deformed)


def test_combined_cross_terms():
    # truncated combined Hamiltonian = Landau + sum_j h_j (P_j + e A_j)
    preset = get_preset("combined_constant")
    truncated = preset.deformed.truncate_to_linear(("Omega",))
    lin = preset.linearized_reference
    assert truncated.equals(lin)
    # and the pure cross piece contains e Omega B terms
    names = {n for pm, f in lin.terms.items()
             for (_, _, _, mono) in f.terms for n, _ in mono}
    assert {"e", "B", "Omega"} <= names


def test_gravito_zeeman_matches_zeeman_pattern():
    gz = get_preset("gravito_zeeman")
    z = get_preset("zeeman")
    # map -(e/2) B -> m Omega: substitute the Landau axial constant
    h_z = z.deformed
    swapped = h_z.substitute_symbol(
        "B", CoordFunction.constant("Omega", 1, -2)
        * CoordFunction.constant("m") * CoordFunction.constant("e", -1))
    assert swapped.equals(gz.deformed)


def test_landau_gravito_structural_map():
    # both presets are the same template with the axial scalar swapped
    lam = CoordFunction.constant("lam")
    template = deform_operator(
        OperatorExpr.free_hamiltonian(),
        DeformationSpec((lam, 0, 0), get_preset("landau").specs[0].generator))
    to_landau = template.substitute_symbol(
        "lam", CoordFunction.constant("B", 1, F(1, 2))
        * CoordFunction.constant("e"))
    to_gravito = template.substitute_symbol(
        "lam", -CoordFunction.constant("Omega") * CoordFunction.constant("m"))
    assert to_landau.equals(get_preset("landau").deformed)
    assert to_gravito.equals(get_preset("gravito_constant").deformed)


def test_free_preset():
    f = get_preset("free")
    assert f.deformed == OperatorExpr.free_hamiltonian()


def test_metadata_shapes():
    for name in sorted(PRESETS):
        meta = get_preset(name).metadata()
        assert meta["name"] == name
        assert len(meta["matrices"]) == len(get_preset(name).specs)
        assert isinstance(meta["sign_note"], str)


def test_each_spec_is_built_from_its_source():
    # A preset is built from its catalog row alone: each spec is the b and Q
    # text of its source's row, and the references read the same sources.
    for name in sorted(PRESETS):
        preset = get_preset(name)
        rows = models._CATALOG[name][0]
        assert len(preset.specs) == len(preset.sources) == len(rows), name
        for spec, source, row in zip(preset.specs, preset.sources, rows):
            _, _, _, b, q, _ = models._SOURCES[row]
            assert spec.b == source.b == parse_triple(b, row, "b"), name
            assert spec.generator == source.generator == parse_triple(
                q, row, "Q"), name


def test_each_source_row_is_read_once():
    first = get_preset("combined_constant").sources
    assert get_preset("landau").sources[0] is first[0]
    assert get_preset("gravito_constant").sources[0] is first[1]


def test_guiding_center_commutators():
    b = -CoordFunction.constant("Omega") * CoordFunction.constant("m")
    zero = CoordFunction.zero()
    coords, comms = guiding_center((b, zero, zero))
    # X1 untouched, commutators confined to the (2,3) block
    assert coords[0] == OperatorExpr.position(1)
    # (B^-1)_23 = -1/b = +1/(m Omega); [Xg_2, Xg_3] = -i (B^-1)_23
    inv_entry = (CoordFunction.constant("Omega", -1)
                 * CoordFunction.constant("m", -1))
    expected = inv_entry.scale(QC(0, F(-1)))
    assert (comms[1][2] - expected).is_structurally_zero()
    assert (comms[2][1] + expected).is_structurally_zero()
    for j in range(3):
        assert comms[0][j].is_structurally_zero()
        assert comms[j][0].is_structurally_zero()
        assert comms[j][j].is_structurally_zero()


def test_guiding_center_reads_numbers_as_constants():
    one, zero = CoordFunction.one(), CoordFunction.zero()
    assert guiding_center((1, 0, 0)) == guiding_center((one, zero, zero))


def test_guiding_center_rejects_non_axial():
    with pytest.raises(ValueError):
        one = CoordFunction.one()
        guiding_center((one, one, CoordFunction.zero()))


@pytest.mark.parametrize("comm", [
    CoordFunction.x(2),  # theta_23 depends on the position
    CoordFunction.constant("m"),  # [Xg2, Xg3] real, so theta_23 imaginary
], ids=["not_constant", "not_real"])
def test_uncertainty_area_refuses_a_theta_that_is_not_a_real_constant(
        comm, monkeypatch):
    comms = [[CoordFunction.zero()] * 3 for _ in range(3)]
    comms[1][2] = comm
    monkeypatch.setattr(models, "guiding_center", lambda b: (None, comms))
    with pytest.raises(InternalInconsistencyError, match="theta_23 = "):
        uncertainty_area_symbolic()


def test_metadata_generators_read_back_through_the_parser(capsys):
    # Each printed component is str(q), which --Q reads back as q; so are
    # the components and the coupling of each field gauge prints.
    for name in PRESETS:
        preset = get_preset(name)
        printed = preset.metadata()["generators"]
        assert len(printed) == len(preset.specs)
        for components, spec in zip(printed, preset.specs):
            generator = parse_triple(", ".join(components), "--Q", "Q")
            assert generator == spec.generator
        assert cli.main(["gauge", "--model", name]) == cli.EXIT_OK
        fields = json.loads(capsys.readouterr().out)["fields"]
        assert len(fields) == len(preset.specs)
        for field, (spec, coupling) in zip(fields, preset.coupled_specs()):
            assert parse_coupling(field["coupling"]) == coupling, name
            assert parse_triple(", ".join(field["components"]), name,
                                "A") == extract_gauge_field(spec, coupling)


def test_metadata_matches_the_deform_schema():
    jsonschema = pytest.importorskip("jsonschema")
    path = os.path.join(os.path.dirname(models.__file__), "schemas",
                        "deform.json")
    with open(path) as fh:
        schema = json.load(fh)["properties"]["metadata"]
    for name in PRESETS:
        jsonschema.validate(get_preset(name).metadata(), schema)
    # The generator labels printed before the triples are refused.
    labelled = {**get_preset("lense_thirring").metadata(),
                "generators": [{"tag": "radial-power", "param": "3/2"}]}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(labelled, schema)


# sha256 of the stdout of `deform --model P` and `gauge --model P`: the
# catalog's output bytes, which change only deliberately.  Each gauge field
# carries its own source's coupling, so a combined preset's gravitomagnetic
# field is divided by -m, as gravito_constant's is.
CATALOG_STDOUT_SHA256 = {
    "free": (
        "f17d75c4eb81769a0514e014ccd73e9a6fe70a2d91524bef23ee66b95a8c9641",
        "567f8dba4cff2022c6e981abe34b3f39920a188728128f2c3ec2c31450039273"),
    "landau": (
        "8b51fa1edcf5000647357dae56bae18822cb1ce99b96f0650260115c8bc0c021",
        "3ed304cd20edcf9df49ed4a17b3467aaaef273806b66a2e25f82fe6ed58fa4e4"),
    "zeeman": (
        "b317b0c25bb2578746dd68dad08ad970a2781de57e2da5047a9abf1132af5af0",
        "6bcde49803db694b866f629d7ca625a73c677cf78d6900c7406a0ef57e8f6252"),
    "aharonov_bohm": (
        "3d0fad12a2c8bebe97454a0ed67d47f6916942a08d052431925e00fe5961b480",
        "1b9f5a70c12da737816266bcd87d2cefa614b520095b5ff850bff16952a753c0"),
    "gravito_constant": (
        "bbc4e978a69c8e3eadbba231614d04daef6f29f19dd11139373f9168be7dd8b3",
        "0d347275792339d1719329ccf7a0911c3b89415439c806fd451be1cf8b023a55"),
    "lense_thirring": (
        "b11ebfb92bdc2367a8a7344d1be76a5dfa97484b0907bf6ac13845713cbb00ed",
        "13dfc78c42b5240b70ccc3b96293b3313a6b8ad8ee7098aa1daf0989fcddade9"),
    "gravito_zeeman": (
        "69ba6bcd595b9a36eb310e46a5d8b3fcfe870bba7fb4ac0f0008729981ea2694",
        "b54b60e176d52c261bf146d6f82125d992dbaff1826291dde51b45b483761026"),
    "combined_constant": (
        "90f10a6b940ef317c4aa616e002ec28ec7f8b0b0c150b18cb28e7593338a2d8b",
        "19d890ccb8010828fa838d523a24ae566bf41bf6a2da7d03bb3db8e75e6efbf5"),
    "combined_lense_thirring": (
        "a77b283cbe3fe3fa0d6378f40b53e293c031c08a39e352c1e10fb7b93f12626b",
        "8c84cdb0cd3393ae43624e8236a54748cc2e340aea5245799a1121a81c2c8183"),
}


@pytest.mark.parametrize("name", PRESETS)
def test_catalog_output_bytes(name, capsys):
    digests = []
    for command in ("deform", "gauge"):
        assert cli.main([command, "--model", name]) == cli.EXIT_OK
        digests.append(hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == CATALOG_STDOUT_SHA256[name]


# sha256 of the stdout of `verify`, `verify --negative-control` and
# `commutator` on expressions that reach every parser branch touching a
# constant: negative powers of constants and literals, division by a
# constant, by r^p and by rho^q, complex literals and phi_M/pi.
VERIFY_STDOUT_SHA256 = {
    # flags: (exit code, digest)
    (): (cli.EXIT_OK,
         "e4a8ed23a56a4da2dc39df7250b2238e8f9ad381a863d30f002aec556ab0705b"),
    ("--negative-control",): (
        cli.EXIT_IDENTITY,
        "0c16b8ef8d7bc1e7813b1cbc5be2cf95ee5423a1d17ebba676ded226d383a778"),
}
COMMUTATOR_STDOUT_SHA256 = [
    ("e^-2*X1", "P1",
     "06832459362c29a54d3c6210ae29c5c02c5df48c30e1e31055ea07fe7d710324"),
    ("X1^2/e", "P1^2",
     "f58b17e36aea81e76eb3bd0bc1eea2291264c6955244b31b613f2846bf1cad65"),
    ("X1/r^(3/2)", "P1 + P2",
     "d8f989b62a35983d9b5905621baf0d761a6defd54ef5f31c7dbffdfd74a9c423"),
    ("X2/rho^2", "P3",
     "fb98b326cd5299e9c1ec1a07f56aec85f472c4b79f7b3c022e2320bbd2a9eaf9"),
    ("(1 + 2*i)*X1/(2 - i)", "P1*X2",
     "1811e15f7031abb9e324a3343677f4f783fce60b8a7b9d27b68ffe9bc0c7aae7"),
    ("phi_M/pi*X3/rho", "P2",
     "184bb1609de9680e452f361b814addaccac8a449b683e0aef7dee343b598fd7e"),
    ("hbar^2*pi^-1*X2/(2*m)", "2^-3*P2^2",
     "bc22a174322a4126d89e996a2868bcb637cb1e76d1d455e585edbb737ab38e46"),
    ("i^-3*X1 + 3^-2*e^-1*X2", "P1*P2",
     "8001a5ac435212ee8ed34bb666fae9dd27009160b3a0f7f131015762d854259a"),
    ("e^2/r/(3/7)", "(B*e/2)*X3*P2 - i*m^-1*P1",
     "1a526c03bac233dd3d64380074ccb33e6e97737bfe4bd26af3da24b4fc8157cc"),
]


@pytest.mark.parametrize("flags", list(VERIFY_STDOUT_SHA256))
def test_verify_output_bytes(flags, capsys):
    code = cli.main(["verify", *flags])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == VERIFY_STDOUT_SHA256[flags]


@pytest.mark.parametrize("a, b, sha256", COMMUTATOR_STDOUT_SHA256)
def test_commutator_output_bytes(a, b, sha256, capsys):
    assert cli.main(["commutator", "--a", a, "--b", b]) == cli.EXIT_OK
    assert hashlib.sha256(
        capsys.readouterr().out.encode()).hexdigest() == sha256
