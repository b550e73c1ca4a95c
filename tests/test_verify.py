import json

from warpconv import cli, verify
from warpconv.deform import DeformationSpec, deform_operator
from warpconv.models import PRESETS
from warpconv.operators import OperatorExpr


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


def test_symbolic_additivity_rejects_a_wrong_sum():
    h0 = OperatorExpr.free_hamiltonian()
    twice = deform_operator(deform_operator(
        h0, DeformationSpec(verify.SKEW_B)), DeformationSpec(verify.SKEW_C))
    summed = DeformationSpec(verify.SKEW_B + verify.SKEW_C)
    assert twice.equals(deform_operator(h0, summed))
    doubled = DeformationSpec(verify.SKEW_B + verify.SKEW_B)
    assert not twice.equals(deform_operator(h0, doubled))
