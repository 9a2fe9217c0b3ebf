"""A decision that returns another verdict than its input's fails.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import incompat  # noqa: E402
import incompat.cli  # noqa: E402
import workloads  # noqa: E402


def _jm_decisions(tmp_path):
    decisions = workloads.build_jm_check(incompat, np.random.default_rng(5), str(tmp_path))
    by_kind = {}
    for d in decisions:
        by_kind.setdefault(d.label.split()[1], d)
    return by_kind


def _cli_result(verdict, code, **payload):
    report = {"parameters": {"max_iter": 5000}, "verdict": verdict, **payload}
    return code, json.dumps(report)


def test_jm_check_rejects_a_verdict_its_input_cannot_have(tmp_path):
    by_kind = _jm_decisions(tmp_path)
    gave_up = _cli_result("undecided", 1, iterations=5000)
    assert by_kind["jm"].check(gave_up)[1] is not None
    assert by_kind["pair"].check(gave_up)[1] is not None
    assert by_kind["budget"].check(gave_up) == ("undecided", None)


def test_jm_check_budget_sets_must_use_the_whole_budget(tmp_path):
    budget = _jm_decisions(tmp_path)["budget"]
    assert budget.check(_cli_result("undecided", 1, iterations=40))[1] is not None
    assert budget.check(_cli_result("not_jm", 0, reason="pair-norm-criterion", pair=[0, 1]))[1]
    assert budget.check(_cli_result("not_jm", 0, reason="dykstra-witness")) == ("not_jm", None)


def test_jm_check_decisions_pass_on_the_library(tmp_path):
    for d in _jm_decisions(tmp_path).values():
        verdict, problem = d.check(d.run())
        assert problem is None, (d.label, verdict, problem)


def test_membership_check_fails_an_unexpected_undecided():
    check = workloads._membership_check(np.zeros(2), None, None, "inside")
    verdict = types.SimpleNamespace(status="undecided")
    assert check(verdict) == ("undecided", "expected inside, got undecided")


def test_seesaw_at_high_visibility_must_come_back_outside(tmp_path):
    decisions = workloads.build_seesaw_certify(incompat, np.random.default_rng(5), str(tmp_path))
    high = [d for d in decisions if d.label.endswith(f"eta={workloads.SEESAW_ETAS[1]}")]
    assert len(high) == workloads.SEESAW_DECISIONS // 2
    for status in ("inside", "undecided"):
        missed = (0.0, types.SimpleNamespace(verdict=types.SimpleNamespace(status=status)))
        assert high[0].check(missed) == (status, f"at visibility 0.95: expected outside, got {status}")
    no_search = (0.0, types.SimpleNamespace(verdict=types.SimpleNamespace(status="outside")))
    assert high[0].check(no_search) == ("outside", "at visibility 0.95: see-saw gap 0.0")


def test_planted_chsh_table_violates_chsh():
    C = workloads.chsh_planted_table(np.random.default_rng(3), 6)
    best = 0.0
    for i in range(6):
        for j in range(6):
            for k in range(6):
                for m in range(6):
                    if i != j and k != m:
                        best = max(best, C[i, k] + C[i, m] + C[j, k] - C[j, m])
    assert best > 2.8
