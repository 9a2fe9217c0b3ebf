import json
import math

import numpy as np
import pytest

from incompat.cli import main
from incompat.gallery import pauli_set
from incompat.jm import (
    MotherPOVM,
    busch_pair_criterion,
    decide,
    jm_feasibility,
    mother_povm_xz,
    noisy_pauli_triple_jm,
)
from incompat.qcore import Assemblage, DichotomicMeasurement, QubitOperator


def noisy_pair(eta):
    return pauli_set("xz", eta)


class TestPairCriterion:
    def test_threshold_margin_vanishes(self):
        a = noisy_pair(1 / math.sqrt(2))
        is_jm, margin = busch_pair_criterion(a[0], a[1])
        assert abs(margin) < 1e-9
        assert is_jm

    def test_margin_at_half(self):
        a = noisy_pair(0.5)
        _, margin = busch_pair_criterion(a[0], a[1])
        assert margin == pytest.approx(2 - math.sqrt(2), abs=1e-12)

    def test_flips_across_threshold(self):
        eta = 1 / math.sqrt(2)
        assert busch_pair_criterion(*noisy_pair(eta - 1e-6).measurements)[0]
        assert not busch_pair_criterion(*noisy_pair(eta + 1e-6).measurements)[0]

    def test_identical_measurements_compatible(self):
        m = DichotomicMeasurement.noisy_projective((0.2, 0.5, 0.8), 0.95)
        is_jm, margin = busch_pair_criterion(m, m)
        assert is_jm and margin >= 0

    def test_rejects_biased_input(self):
        biased = DichotomicMeasurement(QubitOperator(0.6, (0.1, 0, 0)))
        with pytest.raises(ValueError):
            busch_pair_criterion(biased, biased)


class TestMotherPovmXZ:
    def test_eta_zero_gives_uniform_parent(self):
        mother = mother_povm_xz(0.0)
        for e in mother.effects:
            assert e.isclose(QubitOperator(0.25, (0, 0, 0)))

    def test_threshold_effect_eigenvalues(self):
        mother = mother_povm_xz(1 / math.sqrt(2))
        lo, hi = mother.effects[0].eigenvalues()
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_marginals_reproduce_noisy_pair(self):
        eta = 0.5
        mother = mother_povm_xz(eta)
        x_marg = mother.marginal(0, 0)
        assert x_marg.isclose(QubitOperator(0.5, (0.25, 0, 0)))
        assert mother.reconstruction_error(noisy_pair(eta)) < 1e-12

    def test_valid_povm_at_threshold(self):
        eta = 1 / math.sqrt(2)
        mother = mother_povm_xz(eta)
        assert mother.completeness_error() < 1e-12
        assert mother.min_eigenvalue() > -1e-12
        assert mother.reconstruction_error(noisy_pair(eta)) < 1e-12

    def test_rejects_eta_beyond_positivity(self):
        with pytest.raises(ValueError):
            mother_povm_xz(0.75)

    def test_json_round_trip(self):
        mother = mother_povm_xz(0.3)
        back = MotherPOVM.from_json_dict(mother.to_json_dict())
        assert back.responses == mother.responses
        assert all(a.isclose(b) for a, b in zip(back.effects, mother.effects))


class TestPauliTripleThreshold:
    @pytest.mark.parametrize(
        "eta,expected", [(0.5, True), (0.6, False), (0.0, True), (1 / math.sqrt(3), True)]
    )
    def test_threshold(self, eta, expected):
        assert noisy_pauli_triple_jm(eta) is expected

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            noisy_pauli_triple_jm(1.5)


class TestFeasibility:
    def test_xz_pair_at_half(self):
        a = noisy_pair(0.5)
        verdict = jm_feasibility(a)
        assert verdict.is_jm
        assert verdict.mother.reconstruction_error(a) < 1e-8
        assert verdict.mother.completeness_error() < 1e-8
        assert verdict.mother.min_eigenvalue() >= -1e-12

    def test_xz_pair_at_08_stays_undecided(self):
        verdict = jm_feasibility(noisy_pair(0.8))
        assert verdict.status == "undecided"
        assert verdict.residual > 0
        is_jm, margin = busch_pair_criterion(*noisy_pair(0.8).measurements)
        assert not is_jm and margin < 0

    def test_identical_projective_measurements(self):
        z = DichotomicMeasurement.projective((0, 0, 1))
        a = Assemblage((z, z, z))
        verdict = jm_feasibility(a)
        assert verdict.is_jm
        assert verdict.mother.reconstruction_error(a) < 1e-8

    def test_mother_outcome_count_is_exponential(self):
        verdict = jm_feasibility(noisy_pair(0.4))
        assert verdict.mother.n_outcomes == 4
        assert set(verdict.mother.responses) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_rejects_oversized_assemblage(self):
        m = DichotomicMeasurement.trivial()
        with pytest.raises(ValueError):
            jm_feasibility(Assemblage((m,) * 11))

    def test_agrees_with_pair_criterion_on_random_pairs(self):
        rng = np.random.default_rng(12)
        checked_jm = checked_not = 0
        for _ in range(200):
            dirs = rng.normal(size=(2, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            etas = rng.uniform(0, 1, size=2)
            a = Assemblage(
                tuple(
                    DichotomicMeasurement.noisy_projective(d, eta)
                    for d, eta in zip(dirs, etas)
                )
            )
            _, margin = busch_pair_criterion(a[0], a[1])
            if margin > 1e-3:
                verdict = jm_feasibility(a, max_iter=5000)
                assert verdict.is_jm, margin
                checked_jm += 1
            elif margin < -1e-3:
                verdict = jm_feasibility(a, max_iter=5000)
                assert verdict.status == "undecided", margin
                checked_not += 1
        assert checked_jm > 20 and checked_not > 20


class TestDecide:
    def test_matches_jm_check_on_the_cli_inputs(self, tmp_path, capsys):
        z = QubitOperator(0.5, (0.0, 0.0, 0.5))
        cases = [
            (pauli_set("xz", 0.8), 5000, "not_jm", "pair-norm-criterion"),
            (pauli_set("xyz", 0.6), 5000, "not_jm", "orthogonal-triple-threshold"),
            (Assemblage.from_json_list([z.to_json_dict()] * 3), 10, "undecided", None),
        ]
        for k, (a, max_iter, status, reason) in enumerate(cases):
            verdict = decide(a, max_iter=max_iter, tol=1e-9)
            assert (verdict.status, verdict.reason) == (status, reason)
            path = tmp_path / f"a{k}.json"
            path.write_text(json.dumps(a.to_json_list()))
            code = main(["jm-check", "--assemblage", str(path), "--max-iter", str(max_iter)])
            report = json.loads(capsys.readouterr().out)
            assert code == (1 if status == "undecided" else 0)
            for key in ("tool", "version", "command", "parameters"):
                del report[key]
            assert report == json.loads(json.dumps(verdict.to_json_dict()))
        assert decide(cases[0][0]).pair == (0, 1)
        assert decide(cases[1][0]).visibility == pytest.approx(0.6)
