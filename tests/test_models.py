import hashlib
from fractions import Fraction

import pytest

from warpconv import cli, models
from warpconv.coords import CoordFunction
from warpconv.deform import DeformationSpec, deform_operator, skew
from warpconv.models import PRESETS, get_preset, guiding_center
from warpconv.operators import OperatorExpr
from warpconv.parsing import parse
from warpconv.scalars import QC

F = Fraction


def test_every_preset_matches_its_reference():
    for name in sorted(PRESETS):
        preset = get_preset(name)
        assert preset.deformed().equals(preset.reference_hamiltonian), name
        if preset.linearized_reference is not None:
            # Equal after the degree >= 2 truncation in the small constants.
            lhs, rhs = (h.truncate_to_linear(preset.small_constants)
                        for h in (preset.deformed(),
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
    assert preset.deformed().equals(ref)


def test_landau_degenerate_field_reduces_to_free():
    preset = get_preset("landau")
    h = preset.deformed().substitute_symbol("B", CoordFunction.zero())
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_scalar_potential_times_coupling_is_the_potential():
    with_potential = [name for name in PRESETS
                      if get_preset(name).potential is not None]
    assert with_potential == ["zeeman", "gravito_zeeman"]
    for name in with_potential:
        preset = get_preset(name)
        assert (preset.scalar_potential() * preset.coupling).equals(
            preset.potential)
    assert get_preset("landau").scalar_potential() == CoordFunction.zero()


def test_zeeman_is_landau_plus_coulomb():
    z = get_preset("zeeman")
    lan = get_preset("landau")
    pot = OperatorExpr.from_coord(z.potential)
    assert z.deformed().equals(lan.deformed() + pot)


def test_zeeman_potential_unchanged_by_deformation():
    z = get_preset("zeeman")
    deformed_pot = deform_operator(OperatorExpr.from_coord(z.potential),
                                   z.specs[0])
    assert deformed_pot == OperatorExpr.from_coord(z.potential)


def test_zeeman_paramagnetic_term():
    # momentum-linear part equals (eB/2m) L1 with L1 = X2 P3 - X3 P2
    z = get_preset("zeeman")
    h = z.deformed()
    lin = OperatorExpr({pm: f for pm, f in h.terms.items() if sum(pm) == 1})
    expected = parse("(e*B/(2*m)) * (X2*P3 - X3*P2)")
    assert lin.equals(expected)


def test_gravito_constant_linearization():
    g = get_preset("gravito_constant")
    deformed = g.deformed()
    # exact reference is quadratic; linear truncation matches H0 + h.P
    truncated = deformed.truncate_to_linear(("Omega",))
    lin = parse("(P1*P1 + P2*P2 + P3*P3)/(2*m) + Omega*X3*P2 - Omega*X2*P3")
    assert truncated.equals(lin)


def test_gravito_is_free_at_zero_field():
    g = get_preset("gravito_constant")
    h = g.deformed().substitute_symbol("Omega", CoordFunction.zero())
    assert h.equals(OperatorExpr.free_hamiltonian())


def test_lense_thirring_shift_structure():
    # the induced shift is -(BX)_j / r^3
    lt = get_preset("lense_thirring")
    shift = lt.shift_functions()
    bx = [sum((entry * CoordFunction.x(j)
               for j, entry in enumerate(row, start=1)), CoordFunction.zero())
          for row in skew(lt.specs[0].b)]
    r3 = CoordFunction.r_power(-3)
    for j in range(3):
        assert (shift[j] + bx[j] * r3).is_zero()


def test_lense_thirring_zero_inertia():
    lt = get_preset("lense_thirring")
    h = lt.deformed().substitute_symbol("Omega", CoordFunction.zero())
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
    h = preset.deformed()
    assert h.substitute_symbol("Omega", CoordFunction.zero()).equals(
        get_preset("landau").deformed())
    assert h.substitute_symbol("B", CoordFunction.zero()).equals(
        get_preset("gravito_constant").deformed())


def test_combined_cross_terms():
    # truncated combined Hamiltonian = Landau + sum_j h_j (P_j + e A_j)
    preset = get_preset("combined_constant")
    truncated = preset.deformed().truncate_to_linear(("Omega",))
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
    h_z = z.deformed()
    swapped = h_z.substitute_symbol(
        "B", CoordFunction.constant("Omega", 1, -2)
        * CoordFunction.constant("m") * CoordFunction.constant("e", -1))
    assert swapped.equals(gz.deformed())


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
    assert to_landau.equals(get_preset("landau").deformed())
    assert to_gravito.equals(get_preset("gravito_constant").deformed())


def test_free_preset():
    f = get_preset("free")
    assert f.deformed() == OperatorExpr.free_hamiltonian()


def test_metadata_shapes():
    for name in sorted(PRESETS):
        meta = get_preset(name).metadata()
        assert meta["name"] == name
        assert len(meta["matrices"]) == len(get_preset(name).specs)
        assert isinstance(meta["sign_note"], str)


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


def test_guiding_center_rejects_non_axial():
    with pytest.raises(ValueError):
        one = CoordFunction.one()
        guiding_center((one, one, CoordFunction.zero()))


# sha256 of the stdout of `deform --model P` and `gauge --model P`: the
# catalog's output bytes, which change only deliberately.  Each gauge field
# carries its own source's coupling, so a combined preset's gravitomagnetic
# field is divided by -m, as gravito_constant's is.
CATALOG_STDOUT_SHA256 = {
    "free": (
        "d5f60744fef86fb959293263efcc34bd279e9617041f0e8c8b2604cf42f77136",
        "567f8dba4cff2022c6e981abe34b3f39920a188728128f2c3ec2c31450039273"),
    "landau": (
        "c901d62fcf677d9c6609ba740e5d473fe79b1da1ee5d17de782a534883524eb0",
        "3ed304cd20edcf9df49ed4a17b3467aaaef273806b66a2e25f82fe6ed58fa4e4"),
    "zeeman": (
        "1555526d839190b1ecbd90dacaf267362b6356c102fbe3c074a406b82e1bc7cc",
        "6bcde49803db694b866f629d7ca625a73c677cf78d6900c7406a0ef57e8f6252"),
    "aharonov_bohm": (
        "5f8d655148e3244bcb331ccadc2eb8cc0222e02763fca96dd9298010a2af87fa",
        "1b9f5a70c12da737816266bcd87d2cefa614b520095b5ff850bff16952a753c0"),
    "gravito_constant": (
        "1447f65087380b984d757b9c2045e9f2f045ec57841160c8caa06c8f3464b2e1",
        "0d347275792339d1719329ccf7a0911c3b89415439c806fd451be1cf8b023a55"),
    "lense_thirring": (
        "cc893e3fd233de176dce1351d2f606902c1bcc0b78cb240804997bb9817a3031",
        "13dfc78c42b5240b70ccc3b96293b3313a6b8ad8ee7098aa1daf0989fcddade9"),
    "gravito_zeeman": (
        "acd4e303d6d77bba213e67d681a4e90d440e451ab93edabdbff2a7633c1298ba",
        "b54b60e176d52c261bf146d6f82125d992dbaff1826291dde51b45b483761026"),
    "combined_constant": (
        "38915a8acc4a59a58e7ab4c7bca3915a3c74d6fb218c0455abc1b397b658e5aa",
        "19d890ccb8010828fa838d523a24ae566bf41bf6a2da7d03bb3db8e75e6efbf5"),
    "combined_lense_thirring": (
        "a0eef4da201ee76eb0f449c7b47bc867485917ef877583db4c481a56012373c0",
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
