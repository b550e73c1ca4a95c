import json

import pytest

from warpconv import cli, models, verify
from warpconv.coords import CoordFunction
from warpconv.deform import GENERATORS, DeformationSpec, deform_operator
from warpconv.models import PRESETS
from warpconv.operators import OperatorExpr
from warpconv.scalars import QC


def test_negative_control_fails_exactly_the_gauge_cross_checks(capsys):
    assert cli.main(["verify", "--negative-control"]) == cli.EXIT_IDENTITY
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    # F vanishes for free and off the Aharonov-Bohm line, so the flipped
    # sign goes unseen there.
    assert failed == [f"gauge_cross_check::{name}" for name in sorted(PRESETS)
                      if name not in ("aharonov_bohm", "free")]
    assert len(failed) == 7


def test_flipped_commutator_shift_fails_the_closed_forms(monkeypatch):
    shift = verify.momentum_shift_via_commutators
    monkeypatch.setattr(verify, "momentum_shift_via_commutators",
                        lambda spec: [-s for s in shift(spec)])
    report = verify.run_suite(select=["deformed_hamiltonian",
                                      "deformed_momentum"])
    assert len(report["checks"]) == 2 * len(verify.CATALOG_GENERATORS)
    assert not any(c["passed"] for c in report["checks"])


def test_closed_forms_share_one_shift_per_generator(monkeypatch):
    calls = []
    shift = verify.momentum_shift_via_commutators
    monkeypatch.setattr(verify, "momentum_shift_via_commutators",
                        lambda spec: calls.append(spec) or shift(spec))
    report = verify.run_suite(select=["deformed_hamiltonian",
                                      "deformed_momentum"])
    assert report["all_pass"]
    assert len(calls) == len(verify.CATALOG_GENERATORS)


def test_model_section_deforms_each_preset_once(monkeypatch):
    calls = []
    deform_sequence = models.deform_sequence
    monkeypatch.setattr(models, "deform_sequence",
                        lambda *args: calls.append(args) or deform_sequence(*args))
    report = verify.run_suite(select=["model", "hermitian"])
    assert report["all_pass"]
    assert len(calls) == len(PRESETS)


def test_symbolic_additivity_rejects_a_wrong_sum():
    h0 = OperatorExpr.free_hamiltonian()
    q = GENERATORS["coordinate"]()
    b, c = DeformationSpec(verify.SKEW_B, q), DeformationSpec(verify.SKEW_C, q)
    twice = deform_operator(deform_operator(h0, b), c)
    summed = DeformationSpec(
        [b + c for b, c in zip(verify.SKEW_B, verify.SKEW_C)], q)
    assert twice.equals(deform_operator(h0, summed))
    doubled = DeformationSpec([b + b for b in verify.SKEW_B], q)
    assert not twice.equals(deform_operator(h0, doubled))


# The name prefix of each of the ten sections, as `verify --select` takes it.
SECTION_PREFIXES = ["deformed_hamiltonian", "deformed_momentum",
                    "deformed_coordinate", "factorization", "additivity",
                    "rieffel_diagonal", "coefficient_", "model",
                    "moyal_plane_random", "gauge_cross_check"]
SELECTIONS = [[prefix] for prefix in SECTION_PREFIXES] + [
    ["d"], ["hermitian"], ["adjoint"], ["bianchi::landau"],
    ["model", "gauge_cross_check"], ["lorentz_force"]]


@pytest.fixture(scope="module")
def full_runs():
    return {negative: verify.run_suite(negative_control=negative)
            for negative in (False, True)}


@pytest.mark.parametrize("negative_control", [False, True])
@pytest.mark.parametrize("select", SELECTIONS, ids=",".join)
def test_selection_equals_the_filtered_full_run(full_runs, select,
                                                negative_control):
    chosen = [c for c in full_runs[negative_control]["checks"]
              if c["name"].startswith(tuple(select))]
    assert chosen
    assert verify.run_suite(select=select,
                            negative_control=negative_control) == {
        "negative_control": negative_control,
        "all_pass": all(c["passed"] for c in chosen),
        "checks": chosen,
    }


def test_failed_cross_checks_carry_their_residual(full_runs):
    assert not any("residual" in c for c in full_runs[False]["checks"])
    failed = [c for c in full_runs[True]["checks"] if not c["passed"]]
    assert len(failed) == 7
    assert all(c["residual"] for c in failed)


def _refuse(*args, **kwargs):
    raise AssertionError("computed a check outside the selection")


def test_selection_skips_the_checks_it_does_not_name(monkeypatch):
    # Neither selection deforms an operator or builds a Jacobi, Bianchi or
    # Lorentz sum; the checks that do are not computed.
    for name in ("deform_operator", "jacobi_maxwell_sums", "bianchi_sum",
                 "lorentz_force"):
        monkeypatch.setattr(verify, name, _refuse)
    for select in (["gauge_cross_check"], ["deformed_coordinate"]):
        assert verify.run_suite(select=select)["all_pass"]
    # Nor does a selection without a model or gauge check build a preset.
    monkeypatch.setattr(verify, "get_preset", _refuse)
    for select in (["deformed_coordinate"], ["adjoint"]):
        assert verify.run_suite(select=select)["all_pass"]


def test_each_check_selected_alone_equals_the_filtered_full_run(full_runs):
    for negative_control, full in full_runs.items():
        for name in [c["name"] for c in full["checks"]]:
            chosen = [c for c in full["checks"] if c["name"].startswith(name)]
            assert verify.run_suite(select=[name],
                                    negative_control=negative_control) == {
                "negative_control": negative_control,
                "all_pass": all(c["passed"] for c in chosen),
                "checks": chosen,
            }, name


def test_every_comparison_is_one_equals_with_a_residual(monkeypatch):
    # With equality answering "unequal", every identity the suite decides
    # fails and reports the reduced difference: no check is decided
    # otherwise.
    for cls in (OperatorExpr, CoordFunction):
        monkeypatch.setattr(cls, "equals", lambda self, other: False)
    checks = verify.run_suite()["checks"]
    assert len(checks) == 88
    passed = [c["name"] for c in checks if c["passed"]]
    assert passed == []
    assert all("residual" in c for c in checks if not c["passed"])


def test_an_identity_adjoint_fails_the_adjoint_checks(monkeypatch):
    # The hermitian checks pass vacuously when adjoint returns its operand;
    # the adjoint checks must not.
    monkeypatch.setattr(OperatorExpr, "adjoint", lambda self: self)
    report = verify.run_suite()
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "adjoint::X1*P1", "adjoint::i*X1", "adjoint::product_reversal"]


def test_unmatched_selection_computes_nothing(monkeypatch, capsys):
    monkeypatch.setattr(verify, "deform_operator", _refuse)
    assert cli.main(["verify", "--select", "modle"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_uncertainty_cell_is_computed_from_the_algebra(monkeypatch):
    # Doubling theta doubles [Xg2, Xg3], and with it the cell.
    deform_coordinate = models.deform_coordinate
    monkeypatch.setattr(models, "deform_coordinate",
                        lambda theta: deform_coordinate(
                            [t.scale(QC(2)) for t in theta]))
    report = verify.run_suite(select=["uncertainty_area_symbolic"])
    assert [c["passed"] for c in report["checks"]] == [False]
