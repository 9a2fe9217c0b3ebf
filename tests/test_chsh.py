import math
import re

import numpy as np
import pytest

from incompat import chsh
from incompat.chsh import (
    bell_jm_certified,
    chsh_norm_bound,
    chsh_operator,
    optimal_alice_settings,
)
from incompat.jm import busch_pair_criterion
from incompat.qcore import (
    PHI_PLUS_VEC,
    DichotomicMeasurement,
    QubitOperator,
    operator_norm,
)


def random_traceless(rng, max_norm=1.0):
    v = rng.normal(size=3)
    v *= rng.uniform(0, max_norm) / np.linalg.norm(v)
    return QubitOperator(0.0, v)


class TestChshOperator:
    def test_zero_observables(self):
        zero = QubitOperator.zero()
        op = chsh_operator(zero, zero, zero, zero)
        assert np.allclose(op.matrix, 0.0)

    def test_tsirelson_configuration_norm(self):
        a0 = QubitOperator.pauli("z")
        a1 = QubitOperator.pauli("x")
        b0 = QubitOperator(0.0, (1 / math.sqrt(2), 0, 1 / math.sqrt(2)))
        b1 = QubitOperator(0.0, (-1 / math.sqrt(2), 0, 1 / math.sqrt(2)))
        op = chsh_operator(a0, a1, b0, b1)
        assert op.norm() == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_all_identity(self):
        ident = QubitOperator.identity()
        op = chsh_operator(ident, ident, ident, ident)
        assert np.allclose(op.matrix, 2.0 * np.eye(4), atol=1e-14)

    def test_rejects_oversized_observable(self):
        big = QubitOperator(0.0, (1.5, 0, 0))
        ok = QubitOperator.pauli("z")
        with pytest.raises(ValueError):
            chsh_operator(big, ok, ok, ok)


class TestNormBound:
    def test_equal_z_observables(self):
        z = QubitOperator.pauli("z")
        assert chsh_norm_bound(z, z) == pytest.approx(2.0, abs=1e-15)

    def test_noisy_xz_pair(self):
        eta = 0.63
        b0 = eta * QubitOperator.pauli("x")
        b1 = eta * QubitOperator.pauli("z")
        assert chsh_norm_bound(b0, b1) == pytest.approx(2 * math.sqrt(2) * eta, abs=1e-12)

    def test_zero(self):
        assert chsh_norm_bound(QubitOperator.zero(), QubitOperator.zero()) == 0.0

    def test_upper_bounds_dense_norm(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            a0, a1 = random_traceless(rng), random_traceless(rng)
            b0, b1 = random_traceless(rng), random_traceless(rng)
            dense = chsh_operator(a0, a1, b0, b1).norm()
            assert dense <= chsh_norm_bound(b0, b1) + 1e-10

    def test_certifies_bell_jm_below_pair_threshold(self):
        eta = 0.7
        m0 = DichotomicMeasurement.noisy_projective((1, 0, 0), eta)
        m1 = DichotomicMeasurement.noisy_projective((0, 0, 1), eta)
        assert bell_jm_certified(m0, m1)
        m_hi = DichotomicMeasurement.noisy_projective((1, 0, 0), 0.72)
        m_hi2 = DichotomicMeasurement.noisy_projective((0, 0, 1), 0.72)
        assert not bell_jm_certified(m_hi, m_hi2)


class TestAttainability:
    def test_tsirelson_pair(self):
        _, _, value = optimal_alice_settings(
            QubitOperator.pauli("x"), QubitOperator.pauli("z")
        )
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_equal_observables(self):
        a0, _, value = optimal_alice_settings(
            QubitOperator.pauli("z"), QubitOperator.pauli("z")
        )
        assert value == pytest.approx(2.0, abs=1e-12)
        assert a0.isclose(QubitOperator.pauli("z"))

    def test_noisy_pair_crosses_two_at_pair_threshold(self):
        for eta, expect_violation in ((0.70, False), (0.72, True)):
            b0 = eta * QubitOperator.pauli("x")
            b1 = eta * QubitOperator.pauli("z")
            _, _, value = optimal_alice_settings(b0, b1)
            assert value == pytest.approx(2 * math.sqrt(2) * eta, abs=1e-12)
            assert (value > 2.0) is expect_violation
        b0 = QubitOperator.pauli("x") * (1 / math.sqrt(2))
        b1 = QubitOperator.pauli("z") * (1 / math.sqrt(2))
        assert optimal_alice_settings(b0, b1)[2] == pytest.approx(2.0, abs=1e-12)

    def test_attains_bound_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            b0, b1 = random_traceless(rng), random_traceless(rng)
            a0, a1, value = optimal_alice_settings(b0, b1)
            assert value == pytest.approx(chsh_norm_bound(b0, b1), abs=1e-9)
            # returned settings are +-1 observables
            for a in (a0, a1):
                assert abs(a.s) < 1e-10
                assert operator_norm(a) == pytest.approx(1.0, abs=1e-10)

    def test_flip_makes_expectations_nonnegative(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            b0, b1 = random_traceless(rng), random_traceless(rng)
            from incompat.chsh import _attaining_state

            for op in (b0 + b1, b0 - b1):
                psi = _attaining_state(op)
                expectation = 2.0 * float(np.dot(psi.op.v, op.v))
                assert expectation >= -1e-12

    def test_degenerate_difference(self):
        z = QubitOperator.pauli("z")
        _, _, value = optimal_alice_settings(z, z)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_rejects_biased_observable(self):
        biased = QubitOperator(0.3, (0.2, 0, 0))
        with pytest.raises(ValueError):
            optimal_alice_settings(biased, QubitOperator.pauli("z"))

    @pytest.mark.parametrize("offset", [6e-11, -6e-11, 1e-10, -1e-10, 1.0000001e-10, 1.5e-10])
    def test_accepts_exactly_the_observables_of_unbiased_measurements(self, offset):
        m0 = DichotomicMeasurement(QubitOperator(0.5 + offset, (0.0, 0.0, 0.4)))
        m1 = DichotomicMeasurement.noisy_projective((1, 0, 0), 0.8)
        if m0.is_unbiased:
            busch_pair_criterion(m0, m1)
            optimal_alice_settings(m0.observable, m1.observable)
        else:
            with pytest.raises(ValueError, match="B0 must be traceless"):
                optimal_alice_settings(m0.observable, m1.observable)

    def test_attained_value_must_match_the_norm_bound(self, monkeypatch):
        b0, b1 = QubitOperator.pauli("x"), QubitOperator.pauli("z")
        value = optimal_alice_settings(b0, b1)[2]
        monkeypatch.setattr(chsh, "chsh_norm_bound", lambda b0, b1: 0.0)
        message = f"attained value {value!r} does not match norm bound 0.0"
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            optimal_alice_settings(b0, b1)

    def test_value_matches_dense_expectation(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            b0, b1 = random_traceless(rng), random_traceless(rng)
            a0, a1, value = optimal_alice_settings(b0, b1)
            dense = chsh_operator(a0, a1, b0, b1).expectation(PHI_PLUS_VEC)
            assert value == pytest.approx(dense, abs=1e-12)
