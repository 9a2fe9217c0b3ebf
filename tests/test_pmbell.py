import math
import re

import numpy as np
import pytest

from incompat import pmbell
from incompat.correlations import (
    BehaviorTable,
    phi_plus_correlator,
    pm_behavior,
    pm_correlators,
)
from incompat.gallery import pauli_eigenstate_ensemble, pauli_set
from incompat.pmbell import (
    certify_incompatibility,
    check_correlator_equality,
    double_ensemble,
    map_pm_witness_to_bell,
    seesaw_ensemble_search,
    states_to_measurements,
)
from incompat.polytope import PMPolytope, Witness, bell_lmo, fw_membership, pm_lmo
from incompat.qcore import (
    Assemblage,
    DichotomicMeasurement,
    Ensemble,
    QubitOperator,
    QubitState,
    transpose,
)

DIAG = 1 / math.sqrt(2)


def diagonal_ensemble():
    return Ensemble.from_bloch_vectors([(DIAG, 0, DIAG), (DIAG, 0, -DIAG)])


def random_unbiased_assemblage(rng, n):
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return Assemblage(
        tuple(
            DichotomicMeasurement.noisy_projective(d, rng.uniform(0, 1)) for d in dirs
        )
    )


def random_ensemble(rng, n):
    rs = rng.normal(size=(n, 3))
    rs *= (rng.uniform(0, 1, size=(n, 1)) ** (1 / 3)) / np.linalg.norm(
        rs, axis=1, keepdims=True
    )
    return Ensemble(tuple(QubitState.from_bloch(r) for r in rs))


class TestDoubleEnsemble:
    def test_projector_complement(self):
        e = double_ensemble(Ensemble((QubitState.pure((0, 0, 1)),)))
        assert len(e) == 2
        assert np.allclose(e[1].bloch, (0, 0, -1))

    def test_maximally_mixed_self_complementary(self):
        e = double_ensemble(Ensemble((QubitState.maximally_mixed(),)))
        assert np.allclose(e[1].bloch, 0.0)

    def test_bloch_vector_flips(self):
        e = double_ensemble(Ensemble((QubitState.from_bloch((0.3, 0.1, -0.2)),)))
        assert np.allclose(e[1].bloch, (-0.3, -0.1, 0.2), atol=1e-15)

    def test_correlator_rows_antisymmetric(self):
        rng = np.random.default_rng(31)
        e = double_ensemble(random_ensemble(rng, 3))
        a = random_unbiased_assemblage(rng, 2)
        p = pm_correlators(e, a).values
        assert np.array_equal(p[3:], -p[:3])


class TestStatesToMeasurements:
    def test_z_projector_gives_z_measurement(self):
        a = states_to_measurements(Ensemble((QubitState.pure((0, 0, 1)),)))
        assert a[0].effect0.isclose(QubitOperator(0.5, (0, 0, 0.5)))
        assert a[0].observable.isclose(QubitOperator.pauli("z"))

    def test_y_component_flips(self):
        a = states_to_measurements(Ensemble((QubitState.from_bloch((0, 0.8, 0)),)))
        assert a[0].effect0.isclose(QubitOperator(0.5, (0, -0.4, 0)))

    def test_maximally_mixed_gives_trivial(self):
        a = states_to_measurements(Ensemble((QubitState.maximally_mixed(),)))
        assert a[0].observable.isclose(QubitOperator.zero())

    def test_round_trip_through_transpose(self):
        rng = np.random.default_rng(32)
        e = random_ensemble(rng, 4)
        a = states_to_measurements(e)
        back = Ensemble(tuple(QubitState(transpose(m.effect0)) for m in a))
        assert all(x.op.isclose(y.op) for x, y in zip(back, e))


class TestCorrelatorEquality:
    def test_random_instances(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            e = random_ensemble(rng, int(rng.integers(1, 5)))
            a = random_unbiased_assemblage(rng, int(rng.integers(1, 4)))
            assert check_correlator_equality(e, a) < 1e-12

    def test_trivial_ensemble(self):
        e = Ensemble((QubitState.maximally_mixed(),) * 2)
        a = random_unbiased_assemblage(np.random.default_rng(34), 3)
        assert check_correlator_equality(e, a) == pytest.approx(0.0, abs=1e-15)

    def test_eigenstate_correlator_is_one(self):
        e = Ensemble((QubitState.pure((0, 0, 1)),))
        a = pauli_set("z", 1.0)
        doubled = double_ensemble(e)
        p = pm_correlators(doubled, a).values
        assert p[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert check_correlator_equality(e, a) < 1e-12

    def test_rejects_biased_measurements(self):
        e = Ensemble((QubitState.maximally_mixed(),))
        biased = Assemblage((DichotomicMeasurement(QubitOperator(0.6, (0, 0, 0.1))),))
        with pytest.raises(
            ValueError,
            match=r"^measurement 0 is biased \(tr\(effect0\) != 1\); "
            r"the PM-Bell transfer needs tr\(B_y\) = 0$",
        ):
            check_correlator_equality(e, biased)

    def test_rejects_a_non_finite_coefficient(self):
        # unchecked, the deviation comes back as nan
        nan_state = Ensemble((QubitState(QubitOperator(0.5, (math.nan, 0.0, 0.0))),))
        with pytest.raises(ValueError, match="^state 0 has a non-finite coefficient$"):
            check_correlator_equality(nan_state, pauli_set("xz", 0.9))
        nan_effect = Assemblage((DichotomicMeasurement(QubitOperator(0.5, (0, 0, math.nan))),))
        with pytest.raises(ValueError, match="^effect 0 has a non-finite coefficient$"):
            check_correlator_equality(pauli_eigenstate_ensemble(), nan_effect)


class TestWitnessTransfer:
    def test_chsh_coefficients_on_doubled_pair(self):
        w = map_pm_witness_to_bell(Witness(np.array([[1.0, 1.0], [1.0, -1.0]]), 0.0, 0.0))
        assert w.L == pytest.approx(2.0, abs=1e-12)

    def test_zero_witness(self):
        w = map_pm_witness_to_bell(Witness(np.zeros((2, 2)), 0.0, 0.0))
        assert w.L == 0.0 and w.Q == 0.0

    def test_bounds_agree_on_random_doubled_witnesses(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            n_a = int(rng.integers(1, 5))
            n_b = int(rng.integers(1, 4))
            top = rng.normal(size=(n_a, n_b))
            M = np.vstack([top, -top])
            out = map_pm_witness_to_bell(Witness(M, 0.0, 1.0))
            _, l_bell = bell_lmo(out.M)
            _, l_pm = pm_lmo(np.stack([out.M, -out.M], axis=-1), 2)
            assert abs(l_bell - l_pm) < 1e-10

    def test_rejects_odd_row_count(self):
        with pytest.raises(ValueError):
            map_pm_witness_to_bell(Witness(np.zeros((3, 2)), 0.0, 0.0))

    def test_doubled_sign_bound_is_twice_the_top_bound(self):
        # alpha_(x+N) = -alpha_x attains the bound of [T; -T], so the Bell
        # certificate can read T's bound off the transferred one
        rng = np.random.default_rng(16)
        for _ in range(60):
            n_a = int(rng.integers(1, 5))
            n_b = int(rng.integers(1, 4))
            top = rng.normal(size=(n_a, n_b))
            _, l_doubled = bell_lmo(np.vstack([top, -top]))
            assert l_doubled == pytest.approx(2 * bell_lmo(top)[1], rel=1e-12, abs=0.0)


class TestCertification:
    def test_pauli_triple_above_threshold(self):
        report = certify_incompatibility(pauli_set("xyz", 0.75), diagonal_ensemble(), 2)
        assert report.verdict.is_outside
        assert report.bell is not None
        assert report.bell.local_bound == pytest.approx(2.0, abs=1e-9)
        assert report.bell.quantum_value == pytest.approx(
            2 * math.sqrt(2) * 0.75, abs=1e-6
        )
        assert report.bell.quantum_value_born == pytest.approx(
            report.bell.quantum_value, abs=1e-9
        )
        assert any("not jointly measurable" in note for note in report.notes)

    def test_outside_certificate_enumerates_signs_twice(self, monkeypatch):
        # one bound in the transfer, one on the emitted coefficients
        calls = []

        def counting_bell_lmo(M):
            calls.append(np.shape(M))
            return bell_lmo(M)

        monkeypatch.setattr(pmbell, "bell_lmo", counting_bell_lmo)
        report = certify_incompatibility(pauli_set("xyz", 0.75), diagonal_ensemble(), 2)
        assert report.bell is not None
        assert calls == [(4, 3), (2, 3)]

    def test_quantum_value_is_the_per_pair_sum_in_row_major_order(self):
        rng = np.random.default_rng(37)
        a = Assemblage(
            tuple(DichotomicMeasurement.noisy_projective(d, 0.9) for d in rng.normal(size=(4, 3)))
        )
        e = Ensemble(tuple(QubitState.pure(v) for v in rng.normal(size=(6, 3))))
        bell = certify_incompatibility(a, e, 2).bell
        assert bell is not None
        q = 0.0
        for x, ma in enumerate(bell.alice):
            for y, mb in enumerate(a):
                q += bell.coefficients[x, y] * phi_plus_correlator(ma.observable, mb.observable)
        assert bell.quantum_value == q

    def test_pauli_triple_below_threshold(self):
        report = certify_incompatibility(pauli_set("xyz", 0.70), diagonal_ensemble(), 2)
        assert report.verdict.is_inside
        assert report.bell is None
        assert report.verdict.reconstruction_error < 1e-7

    def test_trivial_assemblage_inside_for_all_dims(self):
        trivial = Assemblage((DichotomicMeasurement.trivial(),) * 2)
        for d in (1, 2, 3):
            report = certify_incompatibility(trivial, diagonal_ensemble(), d)
            assert report.verdict.is_inside

    def test_never_inside_with_bell_certificate(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            a = random_unbiased_assemblage(rng, 3)
            e = random_ensemble(rng, 2)
            report = certify_incompatibility(a, e, 2)
            assert not (report.verdict.is_inside and report.bell is not None)

    def test_biased_assemblage_outside_without_bell_transfer(self):
        # bias one measurement: the membership test still applies, but the
        # Bell transfer step requires unbiased effects and must bow out
        base = pauli_set("xyz", 0.9)
        biased = Assemblage(
            (
                base[0],
                base[1],
                DichotomicMeasurement(QubitOperator(0.54, base[2].effect0.v)),
            )
        )
        report = certify_incompatibility(biased, diagonal_ensemble(), 2)
        assert report.verdict.is_outside
        assert report.bell is None
        assert any("unbiased" in note for note in report.notes)

    def test_twelve_random_states_certify_with_bell_certificate(self):
        # 2^24 doubled encodings exceed the oracle budget; 2^6 response tables do not
        vecs = np.random.default_rng(0).normal(size=(12, 3))
        e = Ensemble(tuple(QubitState.pure(v) for v in vecs))
        report = certify_incompatibility(pauli_set("xyz", 0.9), e, 2)
        assert report.verdict.is_outside
        assert report.bell is not None
        assert report.bell.quantum_value > report.bell.local_bound == pytest.approx(2.0)

    def test_invalid_input_raises_the_validate_message(self):
        long_state = Ensemble((QubitState.from_bloch((1.2, 0, 0)),))
        with pytest.raises(ValueError, match=r"^state 0 has \|v\| = 0\.6 > s = 0\.5$"):
            certify_incompatibility(pauli_set("xyz", 0.9), long_state, 2)
        with pytest.raises(ValueError, match="^assemblage has no measurements$"):
            certify_incompatibility(Assemblage(()), diagonal_ensemble(), 2)

    def test_report_json_shape(self):
        report = certify_incompatibility(pauli_set("xyz", 0.8), diagonal_ensemble(), 2)
        payload = report.to_json_dict()
        assert set(payload) >= {"d", "ensemble", "assemblage", "result", "notes"}
        assert "wall_clock_seconds" not in payload
        assert "wall_clock_seconds" in report.to_json_dict(include_timings=True)


class TestCrossChecks:
    """Each check of a certificate raises on one broken input, with its whole message.

    The fixture is outside at d = 2: pauli_set("xz", 1.0) against the Bloch
    vectors (1, 0, +-1)/sqrt(2), whose Bell certificate attains 2 sqrt(2).
    """

    @staticmethod
    def raises(message):
        return pytest.raises(AssertionError, match=f"^{re.escape(message)}$")

    @pytest.fixture
    def outside(self):
        a, e = pauli_set("xz", 1.0), diagonal_ensemble()
        return a, e, certify_incompatibility(a, e, 2)

    def test_transfer_needs_the_two_oracle_bounds_to_agree(self, outside, monkeypatch):
        M = pmbell._antisymmetrize(outside[2].pm_witness.M)
        l_bell = bell_lmo(M)[1] + 1.0
        l_pm = PMPolytope(2, *M.shape).lmo(np.stack([M, -M], axis=-1))[1]

        def shifted_bell_lmo(M):
            strategy, value = bell_lmo(M)
            return strategy, value + 1.0

        monkeypatch.setattr(pmbell, "bell_lmo", shifted_bell_lmo)
        with self.raises(f"oracle bounds disagree: bell {l_bell!r} vs pm {l_pm!r}"):
            map_pm_witness_to_bell(outside[2].pm_witness)

    def test_certificate_needs_a_positive_local_bound(self, outside):
        a, e, _ = outside
        with self.raises("degenerate Bell witness: nonpositive local bound"):
            pmbell._undoubled_bell_certificate(Witness(np.ones((4, 2)), 0.0, 1.0), e, a)

    def test_certificate_needs_the_bound_to_rescale_to_two(self, outside):
        a, e, report = outside
        transferred = map_pm_witness_to_bell(report.pm_witness)
        doubled_bound = Witness(transferred.M, 2.0 * transferred.L, transferred.Q)
        with self.raises("local bound did not rescale to 2"):
            pmbell._undoubled_bell_certificate(doubled_bound, e, a)

    def test_certificate_needs_the_born_rule_to_agree(self, outside, monkeypatch):
        a, e, report = outside
        uniform = BehaviorTable("bell", np.full((2, 2, 2, 2), 0.25))  # every correlator 0
        monkeypatch.setattr(pmbell, "bell_behavior_phi_plus", lambda alice, bob: uniform)
        q = report.bell.quantum_value
        assert repr(q) == "2.82842712474619"
        with self.raises(f"correlator and Born-rule values disagree: {q!r} vs 0.0"):
            certify_incompatibility(a, e, 2)

    def test_seeds_skip_pairs_with_a_trivial_measurement(self):
        xz = pauli_set("xz", 1.0)
        with_trivial = Assemblage((xz[0], DichotomicMeasurement.trivial(), xz[1]))
        seeds = pmbell._diagonal_seeds(with_trivial, 8)
        assert np.array_equal(seeds, pmbell._diagonal_seeds(xz, 8))
        assert np.allclose(seeds[:4], [(DIAG, 0, DIAG), (-DIAG, 0, -DIAG),
                                       (DIAG, 0, -DIAG), (-DIAG, 0, DIAG)])

    @pytest.mark.parametrize("bound", [0.0, -1.0])
    def test_no_violation_without_a_positive_correlator_bound(self, bound):
        # M = 0 has no offset, so the correlator bound is the witness's own
        witness = Witness(np.zeros((2, 1, 2)), bound, 1.0)
        assert pmbell._normalized_violation(witness) == 0.0


class TestSeesaw:
    def test_rediscovers_chsh_violation(self):
        a = pauli_set("xyz", 0.9)
        _, gap = seesaw_ensemble_search(
            a, 2, rounds=10, n_states=4, rng=np.random.default_rng(1)
        )
        assert gap >= 2 * math.sqrt(2) * 0.9 - 2 - 1e-7

    def test_jointly_measurable_never_certifies(self):
        a = pauli_set("xyz", 0.5)
        _, gap = seesaw_ensemble_search(
            a, 2, rounds=8, n_states=4, rng=np.random.default_rng(2)
        )
        assert gap == 0.0

    def test_zero_rounds_evaluates_initial_only(self):
        a = pauli_set("xyz", 0.9)
        # complement-closed diagonal ensemble: already violating, no rounds needed
        e0 = Ensemble.from_bloch_vectors(
            [(DIAG, 0, DIAG), (DIAG, 0, -DIAG), (-DIAG, 0, -DIAG), (-DIAG, 0, DIAG)]
        )
        best, gap = seesaw_ensemble_search(
            a, 2, rounds=0, initial=e0, rng=np.random.default_rng(3)
        )
        assert gap == pytest.approx(2 * math.sqrt(2) * 0.9 - 2, abs=1e-9)
        assert all(x.op.isclose(y.op) for x, y in zip(best, e0))

    def test_zero_rounds_with_classical_initial_reports_no_gap(self):
        a = pauli_set("xyz", 0.9)
        e0 = diagonal_ensemble()  # two states can always be simulated with a bit
        best, gap = seesaw_ensemble_search(
            a, 2, rounds=0, initial=e0, rng=np.random.default_rng(4)
        )
        assert gap == 0.0
        assert all(x.op.isclose(y.op) for x, y in zip(best, e0))

    def test_twenty_four_states_complete(self):
        # 2^24 encodings exceed the oracle budget; 2^6 response tables do not
        best, gap = seesaw_ensemble_search(
            pauli_set("xyz", 0.9), 2, rounds=2, n_states=24, rng=np.random.default_rng(0)
        )
        assert len(best) == 24
        assert gap > 0.0

    def test_gap_matches_a_fresh_encoding_bound(self):
        a = pauli_set("xyz", 0.9)
        best, gap = seesaw_ensemble_search(
            a, 2, rounds=4, n_states=6, rng=np.random.default_rng(5)
        )
        assert gap > 0.0
        verdict = fw_membership(pm_behavior(best, a).data, PMPolytope(2, 6, 3))
        M = verdict.witness.M
        W = (M[:, :, 0] - M[:, :, 1]) / 2.0
        offset = float(np.sum(M[:, :, 0] + M[:, :, 1]) / 2.0)
        _, L = pm_lmo(np.stack([W, -W], axis=-1), 2)
        assert gap == pytest.approx(2.0 * (verdict.witness.Q - offset) / L - 2.0, abs=1e-12)

    def test_negative_rounds_are_rejected(self):
        with pytest.raises(ValueError, match="rounds"):
            seesaw_ensemble_search(pauli_set("xyz", 0.9), 2, rounds=-1)

    def test_nan_assemblage_is_rejected_before_any_round(self):
        # unchecked, numpy fails on a zero-size reduction inside the first round
        nan = DichotomicMeasurement(QubitOperator(0.5, (math.nan, 0.0, 0.0)))
        a = Assemblage((nan, DichotomicMeasurement.projective((0, 0, 1))))
        with pytest.raises(ValueError, match="^effect 0 has a non-finite coefficient$"):
            seesaw_ensemble_search(a, 2, rounds=1, rng=np.random.default_rng(0))

    def test_invalid_initial_ensemble_is_rejected(self):
        initial = Ensemble((QubitState.maximally_mixed(), QubitState.from_bloch((0, 0, 1.2))))
        with pytest.raises(ValueError, match=r"^state 1 has \|v\| = 0\.6 > s = 0\.5$"):
            seesaw_ensemble_search(pauli_set("xyz", 0.9), 2, rounds=1, initial=initial)

    def test_each_distinct_ensemble_is_decided_once(self, monkeypatch):
        a = pauli_set("xyz", 0.5)
        visited, decided = [], []

        def behavior(e, a):
            visited.append(tuple(tuple(rho.bloch) for rho in e))
            return pm_behavior(e, a)

        def membership(point, oracle, **kwargs):
            decided.append(point.tobytes())
            return fw_membership(point, oracle, **kwargs)

        monkeypatch.setattr(pmbell, "pm_behavior", behavior)
        monkeypatch.setattr(pmbell, "fw_membership", membership)
        _, gap = seesaw_ensemble_search(
            a, 2, rounds=8, n_states=4, rng=np.random.default_rng(2)
        )
        assert gap == 0.0
        assert len(visited) == 9
        # every round is inside, so the bisector seed comes back after every
        # other restart: four visits, one decision
        assert max(visited.count(e) for e in visited) == 4
        assert len(decided) == len(set(decided)) == len(set(visited)) == 6

    @pytest.mark.parametrize("seed", [5, 11])
    def test_warm_and_cold_searches_find_the_same_gap(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        a = Assemblage(tuple(DichotomicMeasurement.noisy_projective(d, 0.95) for d in dirs))

        def search():
            return seesaw_ensemble_search(
                a, 2, rounds=10, n_states=8, rng=np.random.default_rng(seed)
            )

        starts = []

        def cold(point, oracle, start=()):
            starts.append(len(start))
            return fw_membership(point, oracle)

        best_warm, gap_warm = search()
        monkeypatch.setattr(pmbell, "fw_membership", cold)
        best_cold, gap_cold = search()
        assert any(starts), "no round would have been warm-started"
        assert gap_warm > 0.0
        assert gap_warm == pytest.approx(gap_cold, abs=1e-9)
        for x, y in zip(best_warm, best_cold):
            assert np.allclose(x.bloch, y.bloch, atol=1e-8)


def _climb_per_state(e, witness, a):
    """The see-saw's best response, one state at a time."""
    states = []
    for x, rho in enumerate(e):
        direction = np.zeros(3)
        for y, m in enumerate(a):
            direction += witness.M[x, y, 0] * m.effect0.v
            direction += witness.M[x, y, 1] * m.effect1.v
        norm = np.linalg.norm(direction)
        states.append(QubitState.pure(direction) if norm > 1e-12 else rho)
    return Ensemble(tuple(states))


class TestClimb:
    def test_matches_the_per_state_loop_to_the_bit(self):
        rng = np.random.default_rng(43)
        for k in range(60):
            n_x, n_y = int(rng.integers(1, 17)), int(rng.integers(1, 7))
            a = random_unbiased_assemblage(rng, n_y)
            e = random_ensemble(rng, n_x)
            M = rng.normal(size=(n_x, n_y, 2))
            if k % 3 == 0:
                M[0] = 0.0  # a state with no direction keeps its place
            witness = Witness(M, 0.0, 1.0)
            climbed = pmbell._climb(e, witness, a)
            reference = _climb_per_state(e, witness, a)
            assert len(climbed) == n_x and climbed == reference
            if k % 3 == 0:
                assert climbed[0] is e[0]
