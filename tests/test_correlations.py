import math
import re

import numpy as np
import pytest

from incompat.correlations import (
    BehaviorTable,
    CorrelatorTable,
    bell_behavior_phi_plus,
    from_correlators,
    phi_plus_correlator,
    pm_behavior,
    pm_correlators,
    to_correlators,
)
from incompat.gallery import pauli_eigenstate_ensemble, pauli_set
from incompat.qcore import (
    Assemblage,
    DichotomicMeasurement,
    Ensemble,
    QubitOperator,
    QubitState,
    born_bell_phi_plus,
    born_pm,
    max_entangled_2,
    trace_product,
)


def random_unbiased(rng, eta=None):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return DichotomicMeasurement.noisy_projective(
        v, rng.uniform(0, 1) if eta is None else eta
    )


def random_state(rng):
    r = rng.normal(size=3)
    r *= rng.uniform(0, 1) ** (1 / 3) / np.linalg.norm(r)
    return QubitState.from_bloch(r)


class TestPMBehavior:
    def test_pauli_eigenstates_vs_xz(self):
        table = pm_behavior(pauli_eigenstate_ensemble(), pauli_set("xz", 1.0))
        # +x eigenstate: certain on the x measurement, unbiased on z
        assert table.data[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
        assert table.data[0, 1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_trivial_measurement_gives_half(self):
        e = pauli_eigenstate_ensemble()
        a = Assemblage((DichotomicMeasurement.trivial(),))
        table = pm_behavior(e, a)
        assert np.allclose(table.data, 0.5, atol=1e-15)

    def test_noisy_z_on_z_aligned_state(self):
        r, eta = 0.63, 0.81
        e = Ensemble((QubitState.from_bloch((0, 0, r)),))
        a = Assemblage((DichotomicMeasurement.noisy_projective((0, 0, 1), eta),))
        table = pm_behavior(e, a)
        assert table.data[0, 0, 0] == pytest.approx((1 + eta * r) / 2, abs=1e-15)

    def test_normalised(self):
        table = pm_behavior(pauli_eigenstate_ensemble(), pauli_set("xyz", 0.7))
        table.check()


class TestBellBehavior:
    def test_z_z_perfect_correlation(self):
        z = Assemblage((DichotomicMeasurement.projective((0, 0, 1)),))
        table = bell_behavior_phi_plus(z, z)
        assert to_correlators(table).values[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_x_x_perfect_correlation(self):
        x = Assemblage((DichotomicMeasurement.projective((1, 0, 0)),))
        table = bell_behavior_phi_plus(x, x)
        assert to_correlators(table).values[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_trivial_alice_factorises(self):
        triv = Assemblage((DichotomicMeasurement.trivial(),))
        b = pauli_set("xz", 0.9)
        table = bell_behavior_phi_plus(triv, b)
        for y in range(2):
            cell = table.data[0, y]
            marginal = cell.sum(axis=0)
            assert cell == pytest.approx(0.5 * np.vstack([marginal, marginal]), abs=1e-14)


class TestCorrelatorConversions:
    def test_flat_pm_table_maps_to_zero(self):
        table = BehaviorTable("pm", np.full((2, 3, 2), 0.5))
        assert np.allclose(to_correlators(table).values, 0.0)

    def test_definition_on_pm_cell(self):
        data = np.zeros((1, 1, 2))
        data[0, 0] = (0.75, 0.25)
        assert to_correlators(BehaviorTable("pm", data)).values[0, 0] == pytest.approx(0.5)

    def test_perfect_correlation_full_corr(self):
        z = Assemblage((DichotomicMeasurement.projective((0, 0, 1)),))
        assert to_correlators(bell_behavior_phi_plus(z, z)).values[0, 0] == pytest.approx(1.0)

    def test_from_correlators_pm_round_trip(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-1, 1, size=(3, 4))
        c = CorrelatorTable("single", values)
        back = to_correlators(from_correlators(c))
        assert np.allclose(back.values, values, atol=1e-15)

    def test_from_correlators_bell_round_trip(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, size=(2, 2))
        c = CorrelatorTable("full", values)
        back = to_correlators(from_correlators(c))
        assert np.allclose(back.values, values, atol=1e-15)

    def test_full_round_trip_on_unbiased_behaviour(self):
        rng = np.random.default_rng(3)
        alice = Assemblage(tuple(random_unbiased(rng) for _ in range(2)))
        bob = Assemblage(tuple(random_unbiased(rng) for _ in range(3)))
        table = bell_behavior_phi_plus(alice, bob)
        rebuilt = from_correlators(to_correlators(table))
        assert np.allclose(rebuilt.data, table.data, atol=1e-12)

    @pytest.mark.parametrize(
        "table, message",
        [(BehaviorTable("pm", np.full((1, 1, 3), 1 / 3)), "single correlators need dichotomic outcomes"),
         (BehaviorTable("bell", np.full((1, 1, 2, 3), 1 / 6)),
          "full correlators need dichotomic outcomes on both sides")],
        ids=["pm_three_outcomes", "bell_two_by_three"],
    )
    def test_needs_dichotomic_outcomes(self, table, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            to_correlators(table)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_correlators(CorrelatorTable("single", np.array([[1.5]])))


class TestPhiPlusCorrelator:
    def test_z_z(self):
        z = QubitOperator.pauli("z")
        assert phi_plus_correlator(z, z) == pytest.approx(1.0, abs=1e-15)

    def test_y_y(self):
        y = QubitOperator.pauli("y")
        assert phi_plus_correlator(y, y) == pytest.approx(-1.0, abs=1e-15)

    def test_x_z(self):
        assert phi_plus_correlator(
            QubitOperator.pauli("x"), QubitOperator.pauli("z")
        ) == pytest.approx(0.0, abs=1e-15)

    def test_matches_dense_computation(self):
        rng = np.random.default_rng(4)
        phi = max_entangled_2().matrix
        for _ in range(100):
            a = QubitOperator(rng.uniform(-0.5, 0.5), rng.normal(size=3) * 0.4)
            b = QubitOperator(rng.uniform(-0.5, 0.5), rng.normal(size=3) * 0.4)
            dense = float(
                np.real(np.trace(phi @ np.kron(a.matrix(), b.matrix())))
            )
            assert phi_plus_correlator(a, b) == pytest.approx(dense, abs=1e-12)


class TestSingleCorrelatorIdentity:
    def test_matches_observable_trace(self):
        rng = np.random.default_rng(5)
        e = Ensemble(tuple(random_state(rng) for _ in range(4)))
        a = Assemblage(tuple(random_unbiased(rng) for _ in range(3)))
        via_behavior = to_correlators(pm_behavior(e, a)).values
        direct = pm_correlators(e, a).values
        assert np.allclose(via_behavior, direct, atol=1e-12)
        for x, rho in enumerate(e):
            for y, m in enumerate(a):
                assert direct[x, y] == pytest.approx(
                    trace_product(rho.op, m.observable), abs=1e-15
                )

    def test_json_round_trip(self):
        table = pm_behavior(pauli_eigenstate_ensemble(), pauli_set("xy", 0.6))
        for t in (table, to_correlators(table)):
            back = type(t).from_json_dict(t.to_json_dict())
            assert back.kind == t.kind and np.array_equal(back.data, t.data)


class TestBellBehaviorOnePass:
    def test_matches_the_per_pair_born_rule(self):
        rng = np.random.default_rng(41)
        for n_a, n_b in [(1, 1), (3, 2), (8, 5), (2, 7)]:
            alice = Assemblage(tuple(random_unbiased(rng) for _ in range(n_a)))
            # biased effects too: s away from 1/2
            bob = Assemblage(
                tuple(
                    DichotomicMeasurement(QubitOperator(s, min(s, 1 - s) * random_state(rng).op.v))
                    for s in rng.uniform(0.1, 0.9, size=n_b)
                )
            )
            table = bell_behavior_phi_plus(alice, bob).data
            assert table.shape == (n_a, n_b, 2, 2)
            for x, ma in enumerate(alice):
                for y, mb in enumerate(bob):
                    assert np.max(np.abs(table[x, y] - born_bell_phi_plus(ma, mb))) <= 1e-15


class TestPMBehaviorOnePass:
    def test_matches_the_per_pair_born_rule_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for k in range(1000):
            n_x, n_y = int(rng.integers(0, 17)), int(rng.integers(0, 9))
            e = Ensemble(tuple(random_state(rng) for _ in range(n_x)))
            # biased effects in every third assemblage
            a = Assemblage(
                tuple(
                    random_unbiased(rng)
                    if k % 3
                    else DichotomicMeasurement(QubitOperator(s, min(s, 1 - s) * random_state(rng).op.v))
                    for s in rng.uniform(0.1, 0.9, size=n_y)
                )
            )
            loop = np.empty((n_x, n_y, 2))
            for x, rho in enumerate(e):
                for y, m in enumerate(a):
                    loop[x, y, :] = born_pm(rho, m)
            table = pm_behavior(e, a).data
            assert table.shape == loop.shape and table.tobytes() == loop.tobytes()


class TestCorrelatorTableFormat:
    @pytest.mark.parametrize(
        "data",
        [[1], {"kind": "full", "data": [1.0]}, {"kind": "full", "shape": [1, 1]},
         {"kind": "full", "shape": [1, 1], "data": [None]},
         {"kind": "full", "shape": ["1", 1], "data": [0.5]}, {"shape": [1, 1], "data": [0.5]}],
    )
    def test_malformed_table_raises_value_error(self, data):
        with pytest.raises(ValueError, match="correlator table object"):
            CorrelatorTable.from_json_dict(data)

    @pytest.mark.parametrize("size", [1.0, True])
    def test_a_shape_of_float_or_bool_one_is_still_refused(self, size):
        with pytest.raises(ValueError, match="^expected a correlator table object$"):
            CorrelatorTable.from_json_dict({"kind": "full", "shape": [size, 2], "data": [0.5, 0.5]})

    @pytest.mark.parametrize(
        "table, match",
        [(CorrelatorTable("full", [[0.5, math.nan]]), r"\[-1, 1\]"),
         (CorrelatorTable("full", [[0.5, math.inf]]), r"\[-1, 1\]"),
         (BehaviorTable("pm", np.full((1, 1, 2), math.nan)), "negative or NaN entries"),
         (BehaviorTable("pm", [[[math.nan, 0.5]]]), "negative or NaN entries"),
         (BehaviorTable("pm", [[[math.inf, 0.5]]]), "not normalised")],
    )
    def test_check_rejects_non_finite_entries(self, table, match):
        with pytest.raises(ValueError, match=match):
            table.check()

    @pytest.mark.parametrize(
        "table",
        [CorrelatorTable("full", np.zeros((0, 2))), CorrelatorTable("single", np.zeros((2, 0))),
         BehaviorTable("pm", np.zeros((0, 2, 2))), BehaviorTable("bell", np.zeros((1, 1, 0, 2)))],
    )
    def test_check_rejects_an_empty_table(self, table):
        name = "correlator" if isinstance(table, CorrelatorTable) else "behaviour"
        with pytest.raises(ValueError, match=f"^{name} table has no entries$"):
            table.check()

    @pytest.mark.parametrize(
        "cls, kind, shape, message",
        [(CorrelatorTable, "full", (1, 2, 2), "full table needs 2 axes, got 3"),
         (CorrelatorTable, "single", (2,), "single table needs 2 axes, got 1"),
         (BehaviorTable, "pm", (2, 2), "pm table needs 3 axes, got 2"),
         (BehaviorTable, "bell", (1, 1, 2), "bell table needs 4 axes, got 3"),
         (CorrelatorTable, "pm", (2, 2), "kind must be 'single' or 'full', got 'pm'"),
         (BehaviorTable, "full", (1, 1, 2), "kind must be 'pm' or 'bell', got 'full'"),
         (CorrelatorTable, [1], (1, 2), "kind must be 'single' or 'full', got [1]"),
         (BehaviorTable, {"a": 1}, (1, 1, 2), "kind must be 'pm' or 'bell', got {'a': 1}")],
    )
    def test_construction_checks_kind_and_axes(self, cls, kind, shape, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(kind, np.zeros(shape))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls.from_json_dict({"kind": kind, "shape": list(shape), "data": [0.0] * math.prod(shape)})

    def test_values_is_the_read_only_data(self):
        table = CorrelatorTable("full", [[0.5, -0.5]])
        assert table.values is table.data and not table.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.values[0, 0] = 1.0
        with pytest.raises(AttributeError):
            table.values = np.zeros((1, 2))

    @pytest.mark.parametrize(
        "data",
        [{"kind": "pm", "shape": [1, 1, 2], "data": [None, 0.5]},
         {"kind": "pm", "shape": [1, 1, 2], "data": ["0.5", 0.5]},
         {"kind": "pm", "shape": [-1, 1, 2], "data": [0.5, 0.5]},
         {"kind": "pm", "data": [0.5, 0.5]}, None],
    )
    def test_malformed_behaviour_table_raises_value_error(self, data):
        with pytest.raises(ValueError, match="behaviour table object"):
            BehaviorTable.from_json_dict(data)
