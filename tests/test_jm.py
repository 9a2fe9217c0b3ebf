import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from incompat.cli import main
from incompat.gallery import pauli_set
from incompat.jm import (
    JMWitness,
    MotherPOVM,
    _incidence,
    _targets,
    busch_pair_criterion,
    decide,
    jm_feasibility,
    mother_povm_xz,
    noisy_pauli_triple_jm,
)
from incompat.qcore import Assemblage, DichotomicMeasurement, QubitOperator


def noisy_pair(eta):
    return pauli_set("xz", eta)


def exact_value(witness, a):
    """tr(z) + sum_y tr(f[y] B_{0|y}) in Fraction arithmetic, or None when a
    block z + sum_{y: k(y)=0} f[y] is not positive semidefinite.

    Independent of the library's own check: a witness refutes a exactly when
    this is a negative number.
    """
    ops = (witness.z, *witness.f)
    rows = [[Fraction(op.s), *map(Fraction, op.v.tolist())] for op in ops]
    assert len(rows) == len(a) + 1
    for k in itertools.product((0, 1), repeat=len(a)):
        block = rows[0]
        for y, b in enumerate(k):
            if b == 0:
                block = [u + w for u, w in zip(block, rows[y + 1])]
        s, *v = block
        if s < 0 or s * s < sum(c * c for c in v):
            return None
    value = 2 * rows[0][0]
    for row, m in zip(rows[1:], a):
        target = [Fraction(m.effect0.s), *map(Fraction, m.effect0.v.tolist())]
        value += 2 * sum(u * t for u, t in zip(row, target))
    return value


def certifies(witness, a):
    """The witness refutes a, checked exactly, and reports its true value."""
    value = exact_value(witness, a)
    return value is not None and value < 0 and witness.value == float(value)


def near_orthogonal(seed, eta, n=3):
    """n noisy projective measurements: a triple within 5 degrees of an
    orthonormal frame, plus a random direction for n = 4."""
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    tilt = rng.normal(size=(3, 3))
    tilt *= np.deg2rad(5.0) * rng.uniform(0.2, 1.0, size=(3, 1)) / np.linalg.norm(
        tilt, axis=1, keepdims=True
    )
    return noisy_set(np.vstack([frame + tilt, rng.normal(size=(n - 3, 3))]), eta)


def noisy_set(dirs, eta):
    dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    return Assemblage(tuple(DichotomicMeasurement.noisy_projective(d, eta) for d in dirs))


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
        message = (
            r"^measurement {} is biased \(tr\(effect0\) != 1\); "
            r"the pair norm criterion applies to unbiased measurements only$"
        )
        with pytest.raises(ValueError, match=message.format(0)):
            busch_pair_criterion(biased, biased)
        unbiased = DichotomicMeasurement.projective((0, 0, 1))
        with pytest.raises(ValueError, match=message.format(1)):
            busch_pair_criterion(unbiased, biased)


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

    def test_xz_pair_at_08_gives_verified_witness(self):
        verdict = jm_feasibility(noisy_pair(0.8))
        assert (verdict.status, verdict.reason) == ("not_jm", "dykstra-gap-witness")
        assert certifies(verdict.witness, noisy_pair(0.8))
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
                assert (verdict.status, verdict.reason) == (
                    "not_jm",
                    "dykstra-gap-witness",
                ), margin
                assert certifies(verdict.witness, a), margin
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

    def test_nan_coefficient_is_rejected_before_the_pair_screen(self):
        # unchecked, the NaN margin fails the screen's test and gives not_jm
        nan = DichotomicMeasurement(QubitOperator(0.5, (math.nan, 0.0, 0.0)))
        a = Assemblage((nan, DichotomicMeasurement.projective((0, 0, 1))))
        with pytest.raises(ValueError, match="^effect 0 has a non-finite coefficient$"):
            decide(a)

    def test_an_unequal_orthogonal_triple_goes_to_the_feasibility_search(self):
        # the threshold screen needs equal visibilities; 0.62^2 + 0.6^2 + 0.58^2 > 1
        a = Assemblage(
            tuple(
                DichotomicMeasurement.noisy_projective(axis, eta)
                for axis, eta in zip(np.eye(3), (0.62, 0.60, 0.58))
            )
        )
        verdict = decide(a)
        assert (verdict.status, verdict.reason) == ("not_jm", "dykstra-gap-witness")
        assert verdict.witness.verify(a)

    def test_effect_above_identity_gets_no_witness(self):
        # unchecked, s = 2 gives an exactly verified dykstra-gap-witness
        big = DichotomicMeasurement(QubitOperator(2.0, (0.0, 0.0, 0.0)))
        a = Assemblage((big, DichotomicMeasurement.projective((0, 0, 1))))
        with pytest.raises(ValueError, match=r"^effect 0 has s = 2 outside \[0, 1\]$"):
            decide(a)


class TestGapWitness:
    """not_jm from the Dykstra search: exact, sound and tamper-evident."""

    INCOMPATIBLE = [
        ("xyz just above 1/sqrt(3)", pauli_set("xyz", 0.58)),
        *[
            (f"{n} settings, seed {k}", near_orthogonal(10 * n + k, 0.62 + 0.02 * (k % 4), n))
            for n in (3, 4)
            for k in range(6)
        ],
    ]

    @pytest.mark.parametrize("name,a", INCOMPATIBLE, ids=[n for n, _ in INCOMPATIBLE])
    def test_incompatible_sets_get_an_exact_witness(self, name, a):
        verdict = jm_feasibility(a)
        assert (verdict.status, verdict.reason) == ("not_jm", "dykstra-gap-witness")
        assert verdict.iterations < 100
        assert certifies(verdict.witness, a)
        assert verdict.witness.verify(a)

    @pytest.mark.parametrize("max_iter", [1, 2, 5, 50, 5000])
    def test_compatible_sets_never_get_not_jm(self, max_iter):
        rng = np.random.default_rng(max_iter)
        z = QubitOperator(0.5, (0.0, 0.0, 0.5))
        sets = [
            pauli_set("xyz", 0.55),
            Assemblage.from_json_list([z.to_json_dict()] * 3),
            *[
                noisy_set(rng.normal(size=(n, 3)), rng.uniform(0.0, 0.5))
                for n in (2, 3, 4)
                for _ in range(4)
            ],
        ]
        for a in sets:
            verdict = jm_feasibility(a, max_iter=max_iter)
            assert verdict.status != "not_jm"
            assert verdict.witness is None
            if max_iter == 5000:
                assert verdict.is_jm

    @pytest.mark.parametrize(
        "a", [pauli_set("xyz", 0.58), noisy_pair(0.8), near_orthogonal(3, 0.66, n=4)]
    )
    def test_tampered_witness_is_rejected(self, a):
        witness = jm_feasibility(a).witness
        # lower z until its tightest block leaves the cone by 1e-6
        margins = []
        for k in itertools.product((0, 1), repeat=len(a)):
            block = witness.z
            for y, b in enumerate(k):
                if b == 0:
                    block = block + witness.f[y]
            margins.append(block.s - block.vnorm)
        mu = min(margins)
        lowered = QubitOperator(witness.z.s - (mu + 1e-6), witness.z.v)
        # negate the largest f[y]
        y = max(range(len(a)), key=lambda i: witness.f[i].vnorm + abs(witness.f[i].s))
        negated = tuple(-op if i == y else op for i, op in enumerate(witness.f))
        assert certifies(witness, a)
        for bad in (
            JMWitness(lowered, witness.f, witness.value),
            JMWitness(witness.z, negated, witness.value),
        ):
            assert not bad.verify(a)
            value = exact_value(bad, a)
            assert value is None or value >= 0

    def test_wrong_operator_count_or_infinite_coefficient_fails_verification(self):
        a = pauli_set("xyz", 0.58)
        witness = jm_feasibility(a).witness
        assert witness.verify(a)
        for bad in (
            JMWitness(witness.z, witness.f[:-1], witness.value),
            JMWitness(witness.z, (*witness.f, witness.f[0]), witness.value),
            JMWitness(QubitOperator(math.inf, witness.z.v), witness.f, witness.value),
        ):
            assert bad.verify(a) is False

    def test_json_round_trip(self):
        a = near_orthogonal(1, 0.64)
        witness = jm_feasibility(a).witness
        back = JMWitness.from_json_dict(json.loads(json.dumps(witness.to_json_dict())))
        assert back == witness
        assert back.verify(a) and certifies(back, a)

    def test_jm_check_reports_a_witness_that_reverifies(self, tmp_path, capsys):
        a = near_orthogonal(2, 0.65)
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(a.to_json_list()))
        code = main(["jm-check", "--assemblage", str(path)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["verdict"] == "not_jm"
        assert report["reason"] == "dykstra-gap-witness"
        loaded = Assemblage.from_json_list(json.loads(path.read_text()))
        assert certifies(JMWitness.from_json_dict(report["witness"]), loaded)


class TestDecideArguments:
    @pytest.mark.parametrize("a", [pauli_set("xy", 0.5), pauli_set("xz", 0.8)])
    @pytest.mark.parametrize(
        "kwargs", [{"max_iter": -5}, {"tol": -1.0}, {"tol": 0.0}, {"max_iter": 2.5}]
    )
    def test_bad_budget_or_tolerance_raises_whether_or_not_a_screen_fires(self, a, kwargs):
        with pytest.raises(ValueError, match="max_iter"):
            decide(a, **kwargs)

    def test_zero_budget_stays_legal(self):
        assert decide(pauli_set("xy", 0.5), max_iter=0).status == "undecided"

    @pytest.mark.parametrize(
        "kwargs", [{"max_iter": -2}, {"tol": 0.0}, {"tol": float("nan")}, {"max_iter": 2.5}]
    )
    def test_feasibility_search_checks_its_own_arguments(self, kwargs):
        with pytest.raises(ValueError, match="max_iter"):
            jm_feasibility(pauli_set("xy", 0.5), **kwargs)

    def test_feasibility_search_rejects_an_empty_assemblage(self):
        with pytest.raises(ValueError, match="need 1 to 10 measurements"):
            jm_feasibility(Assemblage(()))


class TestMotherPovmChecks:
    """The parent's own response table drives every check of a mother POVM."""

    def test_incidence_and_targets_define_the_affine_constraints(self):
        responses = tuple(itertools.product((0, 1), repeat=3))
        incidence = _incidence(responses)
        assert incidence.flags.c_contiguous and incidence.dtype == float
        assert incidence[0].tolist() == [1.0] * 8
        for k, resp in enumerate(responses):
            assert incidence[1:, k].tolist() == [float(b == 0) for b in resp]
        a = pauli_set("xyz", 0.5)
        expected = [[1.0, 0.0, 0.0, 0.0]] + [[m.effect0.s, *m.effect0.v] for m in a]
        assert _targets(a).tolist() == expected

    def test_checks_match_a_direct_sum_over_response_classes(self):
        a = pauli_set("xyz", 0.5)
        mother = jm_feasibility(a).mother
        for y, m in enumerate(a):
            for b, target in ((0, m.effect0), (1, m.effect1)):
                total = QubitOperator.zero()
                for effect, resp in zip(mother.effects, mother.responses):
                    if resp[y] == b:
                        total = total + effect
                assert mother.marginal(y, b).isclose(total, atol=1e-15)
                assert mother.marginal(y, b).isclose(target, atol=1e-8)
        assert mother.completeness_error() < 1e-8
        assert mother.is_valid_for(a, 1e-8)

    @pytest.mark.parametrize("axes", ["x", "xyz"])
    def test_another_setting_count_is_invalid_without_raising(self, axes):
        mother = mother_povm_xz(0.5)
        assert mother.is_valid_for(noisy_pair(0.5), 1e-12)
        assert mother.is_valid_for(pauli_set(axes, 0.5), 1e-12) is False

    @pytest.mark.parametrize(
        "data",
        [
            {"effects": None, "responses": []},
            {"responses": [[0]]},
            [],
            {"effects": [{"s": 1.0, "v": [0, 0, 0]}], "responses": [["0"]]},
            {"effects": [{"s": 1.0, "v": [0, 0, 0]}], "responses": [[0.7]]},
            {"effects": [{"s": 1.0, "v": [0, 0, 0]}], "responses": [[2]]},
            {"effects": [{"s": 1.0, "v": [0, 0, 0]}], "responses": [[True]]},
            {"effects": [{"s": 1.0, "v": [0, 0, 0]}], "responses": [0]},
            {"effects": [{"s": 1.0, "v": [0, 0, 0]}], "responses": [[]]},
            {"effects": [{"s": 1.0, "v": [0, 0, 0]}], "responses": [[0], [1]]},
            {"effects": [{"s": 0.5, "v": [0, 0, 0]}] * 2, "responses": [[0], [0, 1]]},
            {"effects": [{"s": 0.5, "v": [0, 0, 0.5]}, {"s": 0.5, "v": [0, 0, -0.5]}],
             "responses": [[0.0], [1.0]]},
        ],
    )
    def test_malformed_parent_raises_value_error(self, data):
        with pytest.raises(ValueError):
            MotherPOVM.from_json_dict(data)

    @pytest.mark.parametrize("bit", [1.0, True])
    def test_a_response_of_float_or_bool_one_is_still_refused(self, bit):
        effects = (QubitOperator(0.5, (0, 0, 0.5)), QubitOperator(0.5, (0, 0, -0.5)))
        with pytest.raises(
            ValueError, match="^need one response row of 0s and 1s per effect, all one length$"
        ):
            MotherPOVM(effects, ((0,), (bit,)))

    @pytest.mark.parametrize("responses", [((0.0,), (True,)), ((0,), (1.0,)), ((False,), (1,))])
    def test_constructor_refuses_what_the_decoder_refuses(self, responses):
        effects = (QubitOperator(0.5, (0, 0, 0.5)), QubitOperator(0.5, (0, 0, -0.5)))
        assert MotherPOVM(effects, ((0,), (1,))).is_valid_for(pauli_set("z", 1.0), 1e-12)
        with pytest.raises(ValueError, match="^need one response row of 0s and 1s"):
            MotherPOVM(effects, responses)

    @pytest.mark.parametrize(
        "data",
        [
            {"z": {"s": 1.0, "v": [0, 0, 0]}, "f": [], "value": "nan"},
            {"z": {"s": 1.0, "v": [0, 0, 0]}, "f": [], "value": None},
            {"z": {"s": 1.0, "v": [0, 0, 0]}, "f": None, "value": -1.0},
            {"f": [], "value": -1.0},
            None,
        ],
    )
    def test_malformed_witness_raises_value_error(self, data):
        with pytest.raises(ValueError):
            JMWitness.from_json_dict(data)
