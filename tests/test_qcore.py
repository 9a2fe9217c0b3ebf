import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incompat.correlations import BehaviorTable, CorrelatorTable, pm_behavior
from incompat.gallery import pauli_eigenstate_ensemble, pauli_set
from incompat.jm import JMVerdict, JMWitness, mother_povm_xz, noisy_pauli_triple_jm
from incompat.pmbell import BellCertificate, CertificationReport, certify_incompatibility
from incompat.polytope import (
    BellPolytope,
    MembershipVerdict,
    PMStrategy,
    SignAssignment,
    Witness,
    brute_force_membership,
    fw_membership,
)
from incompat.qcore import (
    PHI_PLUS_VEC,
    Assemblage,
    DichotomicMeasurement,
    Ensemble,
    QubitOperator,
    QubitState,
    TwoQubitOperator,
    apply_white_noise,
    born_bell_phi_plus,
    born_pm,
    frozen,
    max_entangled_2,
    operator_norm,
    trace_product,
    transpose,
    validate,
    _as_vec3,
)


def certificate(eta):
    """Certification of pauli_set("xz", eta) against (1, 0, +-1)/sqrt(2) at
    d = 2, without its wall-clock time: outside at eta = 1, inside at 0.5."""
    e = Ensemble.from_bloch_vectors([(1, 0, 1), (1, 0, -1)] / np.sqrt(2))
    report = certify_incompatibility(pauli_set("xz", eta), e, 2)
    return dataclasses.replace(report, wall_clock=None)


def bloch_vectors(max_norm=1.0):
    return st.tuples(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
    ).map(lambda t: np.array(t) * (max_norm / max(1.0, np.linalg.norm(t))))


class TestOperatorNorm:
    def test_zero_operator(self):
        assert operator_norm(QubitOperator.zero()) == 0.0

    def test_sx_plus_sz(self):
        op = QubitOperator(0.0, (1.0, 0.0, 1.0))
        assert operator_norm(op) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_identity(self):
        assert operator_norm(QubitOperator.identity()) == 1.0

    @given(s=st.floats(-2, 2), v=bloch_vectors(2.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_eigensolve(self, s, v):
        op = QubitOperator(s, v)
        dense = float(np.max(np.abs(np.linalg.eigvalsh(op.matrix()))))
        assert operator_norm(op) == pytest.approx(dense, abs=1e-12)


class TestWhiteNoise:
    def test_eta_one_is_identity(self):
        m = DichotomicMeasurement.projective((0.3, -0.2, 0.9))
        assert apply_white_noise(m, 1.0).effect0.isclose(m.effect0)

    def test_eta_zero_gives_half_identity(self):
        m = DichotomicMeasurement.projective((0, 0, 1))
        out = apply_white_noise(m, 0.0)
        assert out.effect0.isclose(QubitOperator(0.5, (0, 0, 0)))

    def test_x_at_pair_threshold(self):
        m = DichotomicMeasurement.projective((1, 0, 0))
        out = apply_white_noise(m, 1 / math.sqrt(2))
        assert out.effect0.isclose(QubitOperator(0.5, (0.5 / math.sqrt(2), 0, 0)))

    def test_rejects_eta_outside_range(self):
        m = DichotomicMeasurement.trivial()
        with pytest.raises(ValueError):
            apply_white_noise(m, 1.2)
        with pytest.raises(ValueError):
            apply_white_noise(m, -0.1)

    @given(eta1=st.floats(0, 1), eta2=st.floats(0, 1), v=bloch_vectors(0.5))
    @settings(max_examples=100, deadline=None)
    def test_noise_composes_multiplicatively(self, eta1, eta2, v):
        m = DichotomicMeasurement(QubitOperator(0.5, v))
        twice = apply_white_noise(apply_white_noise(m, eta2), eta1)
        once = apply_white_noise(m, eta1 * eta2)
        assert twice.effect0.isclose(once.effect0)


class TestBornPM:
    def test_eigenstate(self):
        rho = QubitState.pure((0, 0, 1))
        m = DichotomicMeasurement.projective((0, 0, 1))
        assert born_pm(rho, m) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_maximally_mixed(self):
        rho = QubitState.maximally_mixed()
        m = DichotomicMeasurement.noisy_projective((0.1, 0.5, -0.3), 0.7)
        assert born_pm(rho, m) == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_unbiased_basis(self):
        rho = QubitState.pure((0, 0, 1))
        m = DichotomicMeasurement.projective((1, 0, 0))
        assert born_pm(rho, m) == pytest.approx((0.5, 0.5), abs=1e-15)

    @given(r=bloch_vectors(1.0), v=bloch_vectors(0.5), s=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_probabilities_valid(self, r, v, s):
        scale = min(s, 1.0 - s)
        effect = QubitOperator(s, v * (scale / 0.5))
        p0, p1 = born_pm(QubitState.from_bloch(r), DichotomicMeasurement(effect))
        assert -1e-12 <= p0 <= 1 + 1e-12
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


class TestBellPhiPlus:
    def test_z_z_perfect_correlation(self):
        z = DichotomicMeasurement.projective((0, 0, 1))
        table = born_bell_phi_plus(z, z)
        assert table == pytest.approx(np.array([[0.5, 0.0], [0.0, 0.5]]), abs=1e-15)

    def test_y_y_anticorrelation(self):
        y = DichotomicMeasurement.projective((0, 1, 0))
        table = born_bell_phi_plus(y, y)
        assert table == pytest.approx(np.array([[0.0, 0.5], [0.5, 0.0]]), abs=1e-15)

    def test_trivial_factorises(self):
        triv = DichotomicMeasurement.trivial()
        b = DichotomicMeasurement.noisy_projective((0.2, 0.3, 0.9), 0.8)
        table = born_bell_phi_plus(triv, b)
        marginal = table.sum(axis=0)
        assert table == pytest.approx(0.5 * np.vstack([marginal, marginal]), abs=1e-14)

    def test_correlator_identity_for_unbiased(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            va, vb = rng.normal(size=3), rng.normal(size=3)
            va *= rng.uniform(0, 0.5) / np.linalg.norm(va)
            vb *= rng.uniform(0, 0.5) / np.linalg.norm(vb)
            ma = DichotomicMeasurement(QubitOperator(0.5, va))
            mb = DichotomicMeasurement(QubitOperator(0.5, vb))
            table = born_bell_phi_plus(ma, mb)
            c = 0.5 * trace_product(transpose(ma.observable), mb.observable)
            for a in range(2):
                for b in range(2):
                    sign = 1.0 if a == b else -1.0
                    assert table[a, b] == pytest.approx((1 + sign * c) / 4, abs=1e-12)


class TestMaxEntangled:
    def test_matrix_entries(self):
        phi = max_entangled_2()
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(phi.matrix, expected, atol=1e-15)

    def test_trace_and_purity(self):
        phi = max_entangled_2().matrix
        assert np.trace(phi) == pytest.approx(1.0, abs=1e-15)
        assert np.trace(phi @ phi) == pytest.approx(1.0, abs=1e-15)


class TestTranspose:
    def test_flips_sy(self):
        assert transpose(QubitOperator.pauli("y")).isclose(-1.0 * QubitOperator.pauli("y"))

    def test_fixes_sz(self):
        assert transpose(QubitOperator.pauli("z")).isclose(QubitOperator.pauli("z"))

    @given(s=st.floats(-2, 2), v=bloch_vectors(2.0))
    @settings(max_examples=100, deadline=None)
    def test_involution(self, s, v):
        op = QubitOperator(s, v)
        assert transpose(transpose(op)).isclose(op)

    def test_matches_dense_transpose(self):
        op = QubitOperator(0.3, (0.1, -0.7, 0.4))
        assert np.allclose(transpose(op).matrix(), op.matrix().T, atol=1e-15)


class TestVec3:
    @pytest.mark.parametrize(
        "make", [list, tuple, lambda v: (x for x in v), np.array],
        ids=["list", "tuple", "generator", "ndarray"],
    )
    def test_every_iterable_gives_the_same_array(self, make):
        values = (0.1, -0.7, 0.4)
        arr = _as_vec3(make(values))
        assert arr.dtype == np.float64 and arr.tolist() == list(values)

    def test_an_integer_array_becomes_float(self):
        arr = _as_vec3(np.array([1, 0, -2]))
        assert arr.dtype == np.float64 and arr.tolist() == [1.0, 0.0, -2.0]

    @pytest.mark.parametrize(
        "v, shape",
        [((1.0, 2.0), "(2,)"), (np.zeros(4), "(4,)"), (np.zeros((3, 1)), "(3, 1)"),
         ((x for x in range(2)), "(2,)"), ([[1.0, 2.0, 3.0]], "(1, 3)")],
        ids=["pair", "array4", "column", "generator", "nested"],
    )
    def test_a_wrong_shape_raises(self, v, shape):
        message = f"expected a real 3-vector, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _as_vec3(v)


class TestValidate:
    def test_pauli_eigenstates_ok(self):
        e = Ensemble.from_bloch_vectors([(1, 0, 0), (-1, 0, 0), (0, 0, 1)])
        assert validate(e) is None

    def test_overlong_bloch_vector(self):
        e = Ensemble((QubitState.from_bloch((1.1, 0, 0)),))
        with pytest.raises(ValueError, match=r"^state 0 has \|v\| = 0\.55 > s = 0\.5$"):
            validate(e)

    def test_effect_above_identity(self):
        a = Assemblage((DichotomicMeasurement(QubitOperator(0.6, (0.5, 0, 0))),))
        with pytest.raises(ValueError, match=r"^effect 0 has s \+ \|v\| = 1\.1 > 1$"):
            validate(a)

    def test_degenerate_effects_allowed(self):
        a = Assemblage(
            (
                DichotomicMeasurement(QubitOperator(0.0, (0, 0, 0))),
                DichotomicMeasurement(QubitOperator(1.0, (0, 0, 0))),
            )
        )
        assert validate(a) is None

    def test_reports_first_violation_index(self):
        e = Ensemble(
            (
                QubitState.maximally_mixed(),
                QubitState.from_bloch((1.2, 0, 0)),
                QubitState.from_bloch((1.3, 0, 0)),
            )
        )
        with pytest.raises(ValueError, match=r"^state 1 has \|v\| = 0\.6 > s = 0\.5$"):
            validate(e)

    @pytest.mark.parametrize(
        "obj, message",
        [(Ensemble(()), "ensemble has no states"),
         (Assemblage(()), "assemblage has no measurements")],
    )
    def test_empty_is_rejected(self, obj, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            validate(obj)

    def test_other_objects_are_a_type_error(self):
        message = "validate expects Ensemble or Assemblage, got <class 'list'>"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            validate([QubitState.maximally_mixed()])


class TestOperatorLists:
    @pytest.mark.parametrize(
        "cls, field, members",
        [
            (Ensemble, "states", [QubitState.pure((1, 0, 0)), QubitState.maximally_mixed()]),
            (
                Assemblage,
                "measurements",
                [DichotomicMeasurement.projective((0, 0, 1)), DichotomicMeasurement.trivial()],
            ),
        ],
    )
    def test_a_tuple_behind_the_sequence_protocol(self, cls, field, members):
        from_list, from_generator = cls(members), cls(m for m in members)
        for obj in (from_list, from_generator):
            assert getattr(obj, field) == tuple(members)
            assert type(getattr(obj, field)) is tuple
            assert len(obj) == 2 and list(obj) == members
            assert obj[0] is members[0] and obj[-1] is members[1]
            assert obj[:1] == (members[0],)
        assert from_list == from_generator
        assert repr(from_list).startswith(f"{cls.__name__}({field}=(")


class TestJsonRoundTrips:
    def test_operator(self):
        op = QubitOperator(0.25, (0.1, -0.2, 0.05))
        assert QubitOperator.from_json_dict(op.to_json_dict()).isclose(op)

    def test_ensemble_and_assemblage(self):
        e = Ensemble.from_bloch_vectors([(0.3, 0.1, -0.2), (0, 0, 1)])
        a = Assemblage(
            (
                DichotomicMeasurement.noisy_projective((1, 0, 0), 0.8),
                DichotomicMeasurement(QubitOperator(0.6, (0.1, -0.3, 1 / 3))),
            )
        )
        for obj, operator in ((e, lambda m: m.op), (a, lambda m: m.effect0)):
            back = type(obj).from_json_list(obj.to_json_list())
            assert type(back) is type(obj) and len(back) == len(obj)
            for m, b in zip(obj, back):
                assert operator(b).s == operator(m).s
                assert (operator(b).v == operator(m).v).all()
            assert back.to_json_list() == obj.to_json_list()

    def test_two_qubit_operator(self):
        phi = max_entangled_2()
        back = TwoQubitOperator.from_json_dict(phi.to_json_dict())
        assert np.allclose(back.matrix, phi.matrix, atol=1e-15)

    def test_two_qubit_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError):
            TwoQubitOperator(mat)


class TestNoisyProjective:
    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
    def test_visibility_in_range_is_kept(self, eta):
        assert DichotomicMeasurement.noisy_projective((0, 0, 2), eta).visibility == eta

    @pytest.mark.parametrize("eta", [1.5, -0.1, float("nan")])
    def test_visibility_out_of_range_is_rejected(self, eta):
        # one message from every function that takes a visibility
        message = rf"^visibility must lie in \[0, 1\], got {eta}$"
        m = DichotomicMeasurement.projective((1, 0, 0))
        for call in (
            lambda: DichotomicMeasurement.noisy_projective((0, 0, 1), eta),
            lambda: apply_white_noise(m, eta),
            lambda: noisy_pauli_triple_jm(eta),
        ):
            with pytest.raises(ValueError, match=message):
                call()


class TestValueEquality:
    @pytest.mark.parametrize(
        "build",
        [lambda: QubitOperator(0.5, (0, 0, 0.1)), lambda: QubitState.pure((1, 2, 3)),
         lambda: DichotomicMeasurement.noisy_projective((0, 1, 1), 0.7),
         pauli_eigenstate_ensemble, lambda: pauli_set("xz", 0.5), lambda: mother_povm_xz(0.6),
         lambda: Witness([[1.0, -0.5], [0.25, 0.0]], 1.0, 1.5),
         lambda: certificate(0.5).verdict, lambda: certificate(1.0).verdict,
         lambda: certificate(1.0).bell, lambda: certificate(1.0),
         lambda: pm_behavior(pauli_eigenstate_ensemble(), pauli_set("xz", 0.5)),
         lambda: CorrelatorTable("full", [[0.5, -0.5], [0.5, 0.5]]), max_entangled_2],
        ids=["operator", "state", "measurement", "ensemble", "assemblage", "mother", "witness",
             "inside_verdict", "outside_verdict", "bell_certificate", "report", "behavior",
             "correlators", "two_qubit"],
    )
    def test_equal_builders_compare_and_hash_equal(self, build):
        first, second = build(), build()
        assert first is not second
        assert first == second and hash(first) == hash(second)

    @pytest.mark.parametrize(
        "build, array",
        [(lambda M: Witness(M, 1.0, 1.5), [[1.0, -0.5], [0.25, 0.0]]),
         (lambda M: CorrelatorTable("full", M), [[0.5, -0.5], [0.5, 0.5]]),
         (lambda M: BehaviorTable("pm", M), [[[0.25, 0.75]]]),
         (TwoQubitOperator, np.eye(4)),
         (lambda M: dataclasses.replace(certificate(1.0).bell, coefficients=M),
          certificate(1.0).bell.coefficients)],
        ids=["witness", "correlators", "behavior", "two_qubit", "bell_certificate"],
    )
    def test_one_ulp_in_one_array_entry_is_unequal(self, build, array):
        array = np.array(array, dtype=float)
        for i in range(array.size):
            nudged = array.copy()
            nudged.flat[i] = math.nextafter(nudged.flat[i], 2.0)
            assert build(array) == build(array.copy())
            assert build(array) != build(nudged)

    def test_one_ulp_in_s_or_in_one_entry_of_v_is_unequal(self):
        op = QubitOperator(0.5, (0.1, 0.2, 0.3))
        assert op != QubitOperator(math.nextafter(0.5, 1.0), op.v)
        for i in range(3):
            v = op.v.copy()
            v[i] = math.nextafter(v[i], 1.0)
            assert op != QubitOperator(op.s, v)
            assert Ensemble((QubitState(op),)) != Ensemble((QubitState(QubitOperator(op.s, v)),))

    def test_signed_zeros_compare_and_hash_alike(self):
        negative, positive = QubitOperator(0.5, (-0.0, 0, 0)), QubitOperator(0.5, (0.0, 0, 0))
        assert negative == positive and hash(negative) == hash(positive)
        assert len({negative, positive}) == 1
        assert len({Witness([[-0.0, 1.0]], 0.0, 1.0), Witness([[0.0, 1.0]], 0.0, 1.0)}) == 1

    def test_another_type_is_unequal(self):
        assert QubitOperator.identity() != (1.0, 0.0, 0.0, 0.0)

    def test_another_kind_or_shape_is_unequal(self):
        assert CorrelatorTable("full", [[0.5]]) != CorrelatorTable("single", [[0.5]])
        assert Witness([[1.0, 0.0]], 0.0, 1.0) != Witness([[1.0], [0.0]], 0.0, 1.0)

    def test_record_arrays_are_read_only_copies(self):
        source = np.array([[0.5, -0.5], [0.25, 0.0]])
        fw_inside, bell = certificate(0.5).verdict, certificate(1.0).bell
        simplex_inside = brute_force_membership(source[0], source)
        assert fw_inside.is_inside and simplex_inside.is_inside and bell is not None
        records = (fw_inside, simplex_inside, bell)
        hashes = [hash(record) for record in records]
        frozen_arrays = [
            QubitOperator(0.5, source[0, :1].repeat(3)).v, max_entangled_2().matrix,
            CorrelatorTable("full", source).data, Witness(source, 1.0, 1.5).M,
            frozen(source), frozen(source, complex), fw_inside.weights,
            simplex_inside.vertices, bell.coefficients, PHI_PLUS_VEC,
        ]
        for arr in frozen_arrays:
            assert not arr.flags.writeable and not np.shares_memory(arr, source)
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 1.0
        assert frozen(source, complex).dtype == complex
        assert [hash(record) for record in records] == hashes


class TestFieldEncoding:
    @pytest.mark.parametrize(
        "record, expected",
        [(QubitOperator(0.25, (0.5, -0.125, 0)), {"s": 0.25, "v": [0.5, -0.125, 0.0]}),
         (PMStrategy((0, 1, 1), ((0, 1), (1, 0))), {"f": [0, 1, 1], "g": [[0, 1], [1, 0]]}),
         (SignAssignment((1, -1), (-1, 1, 1)), {"alpha": [1, -1], "beta": [-1, 1, 1]}),
         (Witness([[1.0, -0.5]], 1, 1.5), {"M": [[1.0, -0.5]], "L": 1.0, "Q": 1.5}),
         (JMWitness(QubitOperator(0.5, (0, 0, 0)), (QubitOperator(-0.25, (0, 0, 0.25)),), -0.125),
          {"z": {"s": 0.5, "v": [0.0, 0.0, 0.0]}, "f": [{"s": -0.25, "v": [0.0, 0.0, 0.25]}],
           "value": -0.125}),
         (mother_povm_xz(0.5),
          {"effects": [{"s": 0.25, "v": [0.125, 0.0, 0.125]},
                       {"s": 0.25, "v": [0.125, 0.0, -0.125]},
                       {"s": 0.25, "v": [-0.125, 0.0, 0.125]},
                       {"s": 0.25, "v": [-0.125, 0.0, -0.125]}],
           "responses": [[0, 0], [0, 1], [1, 0], [1, 1]]})],
        ids=["operator", "pm_strategy", "sign_assignment", "witness", "jm_witness", "mother"],
    )
    def test_each_field_maps_to_its_json_value(self, record, expected):
        encoded = record.to_json_dict()
        assert encoded == expected and json.dumps(encoded) == json.dumps(expected)

    @pytest.mark.parametrize(
        "record, expected",
        [(fw_membership(np.array([[1.0, 0.0], [1.0, 0.0]]), BellPolytope(2, 2)),
          {"verdict": "inside", "iterations": 2,
           "vertices": [{"alpha": [1, 1], "beta": [1, 1]}, {"alpha": [1, 1], "beta": [1, -1]}],
           "weights": [0.5, 0.5], "reconstruction_error": 0.0}),
         (fw_membership(np.full((2, 2), 2.0), BellPolytope(2, 2)),
          {"verdict": "outside", "iterations": 1,
           "witness": {"M": [[1.0, 1.0], [1.0, 1.0]], "L": 4.0, "Q": 8.0},
           "distance_bounds": [2.0, 2.0]}),
         (fw_membership(np.array([[1.0, 0.0], [1.0, 0.0]]), BellPolytope(2, 2), max_iter=0),
          {"verdict": "undecided", "iterations": 0,
           "distance_bounds": [0.0, 1.4142135623730951]}),
         (brute_force_membership(np.array([0.5, 0.5]), [[1.0, 0.0], [0.0, 1.0]]),
          {"verdict": "inside", "iterations": 1, "vertices": [[1.0, 0.0], [0.0, 1.0]],
           "weights": [0.5, 0.5], "reconstruction_error": 0.0}),
         (JMVerdict("jm", mother=mother_povm_xz(0.5), iterations=1),
          {"verdict": "jm",
           "mother": {"effects": [{"s": 0.25, "v": [0.125, 0.0, 0.125]},
                                  {"s": 0.25, "v": [0.125, 0.0, -0.125]},
                                  {"s": 0.25, "v": [-0.125, 0.0, 0.125]},
                                  {"s": 0.25, "v": [-0.125, 0.0, -0.125]}],
                      "responses": [[0, 0], [0, 1], [1, 0], [1, 1]]},
           "iterations": 1}),
         (JMVerdict("not_jm", reason="pair-norm-criterion", pair=(0, 1), margin=-0.75),
          {"verdict": "not_jm", "reason": "pair-norm-criterion", "pair": [0, 1],
           "margin": -0.75}),
         (JMVerdict("not_jm", reason="dykstra-gap-witness", residual=0.0625, iterations=3,
                    witness=JMWitness(QubitOperator(0.5, (0, 0, 0)),
                                      (QubitOperator(-0.25, (0, 0, 0.25)),), -0.125)),
          {"verdict": "not_jm",
           "witness": {"z": {"s": 0.5, "v": [0.0, 0.0, 0.0]},
                       "f": [{"s": -0.25, "v": [0.0, 0.0, 0.25]}], "value": -0.125},
           "reason": "dykstra-gap-witness", "residual": 0.0625, "iterations": 3}),
         (BellCertificate(np.array([[1.0, 1.0], [1.0, -1.0]]), 2.0, 2.75, 2.625,
                          pauli_set("xz", 1.0)),
          {"coefficients": [[1.0, 1.0], [1.0, -1.0]], "local_bound": 2.0,
           "quantum_value": 2.75, "quantum_value_born": 2.625,
           "alice_effects": [{"s": 0.5, "v": [0.5, 0.0, 0.0]},
                             {"s": 0.5, "v": [0.0, 0.0, 0.5]}]}),
         (TwoQubitOperator(np.array([[1, 0.5j, 0, 0], [-0.5j, 0, 0, 0],
                                     [0, 0, 0.25, -0.125], [0, 0, -0.125, -1]])),
          {"matrix": [[[1.0, 0.0], [0.0, 0.5], [0.0, 0.0], [0.0, 0.0]],
                      [[-0.0, -0.5], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                      [[0.0, 0.0], [0.0, 0.0], [0.25, 0.0], [-0.125, 0.0]],
                      [[0.0, 0.0], [0.0, 0.0], [-0.125, 0.0], [-1.0, 0.0]]]})],
        ids=["fw_inside", "fw_outside", "fw_undecided", "simplex_inside", "jm",
             "not_jm_pair", "not_jm_gap_witness", "bell_certificate", "two_qubit"],
    )
    def test_each_report_key_in_order(self, record, expected):
        encoded = record.to_json_dict()
        assert encoded == expected and json.dumps(encoded) == json.dumps(expected)

    @pytest.mark.parametrize("include_timings", [False, True])
    def test_certification_report_keys_in_order(self, include_timings):
        bell = BellCertificate(np.array([[2.0]]), 2.0, 2.5, 2.5, pauli_set("z", 1.0))
        report = CertificationReport(
            2, MembershipVerdict("outside", witness=Witness([[1.0, -1.0]], 1.0, 1.5),
                                 distance_lower=0.25, distance_upper=0.5, iterations=4),
            Ensemble.from_bloch_vectors([(0, 0, 1)]), pauli_set("z", 1.0),
            pm_witness=Witness([[1.0, -1.0]], 1.0, 1.5), bell=bell, notes=("a note",),
            wall_clock=0.125,
        )
        expected = {
            "d": 2, "ensemble": [{"s": 0.5, "v": [0.0, 0.0, 0.5]}],
            "assemblage": [{"s": 0.5, "v": [0.0, 0.0, 0.5]}],
            "result": {"verdict": "outside", "iterations": 4,
                       "witness": {"M": [[1.0, -1.0]], "L": 1.0, "Q": 1.5},
                       "distance_bounds": [0.25, 0.5]},
            "notes": ["a note"], "pm_witness": {"M": [[1.0, -1.0]], "L": 1.0, "Q": 1.5},
            "bell_certificate": {"coefficients": [[2.0]], "local_bound": 2.0,
                                 "quantum_value": 2.5, "quantum_value_born": 2.5,
                                 "alice_effects": [{"s": 0.5, "v": [0.0, 0.0, 0.5]}]},
        }
        if include_timings:
            expected["wall_clock_seconds"] = 0.125
        encoded = report.to_json_dict(include_timings=include_timings)
        assert encoded == expected and json.dumps(encoded) == json.dumps(expected)


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [(lambda: QubitOperator(0.5, (0, 0)), "expected a real 3-vector, got shape (2,)"),
         (lambda: QubitState.pure((0, 0, 0)), "pure state needs a nonzero direction"),
         (lambda: DichotomicMeasurement.noisy_projective((0, 0, 0), 0.5),
          "projective measurement needs a nonzero direction")],
        ids=["short_vector", "pure_state", "noisy_projective"],
    )
    def test_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestJsonFormat:
    @pytest.mark.parametrize(
        "data",
        [1, [0.5, [0, 0, 0.5]], {"s": 0.5}, {"s": None, "v": [0, 0, 0.5]},
         {"s": 0.5, "v": None}, {"s": "0.5", "v": [0, 0, 0.5]}, {"s": 0.5, "v": [0, True, 0]},
         {"s": 10**400, "v": [0, 0, 0]}],
    )
    def test_malformed_operator_raises_value_error(self, data):
        with pytest.raises(ValueError, match="operator object"):
            QubitOperator.from_json_dict(data)

    @pytest.mark.parametrize("cls", [Ensemble, Assemblage])
    def test_malformed_list_raises_value_error(self, cls):
        with pytest.raises(ValueError, match="JSON array"):
            cls.from_json_list({"s": 0.5, "v": [0, 0, 0]})
        with pytest.raises(ValueError, match="operator object"):
            cls.from_json_list([1, 2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_are_violations(self, bad):
        e = Ensemble((QubitState(QubitOperator(0.5, (bad, 0, 0))),))
        a = Assemblage((DichotomicMeasurement(QubitOperator(0.5, (0, 0, bad))),))
        for obj, what in ((e, "state"), (a, "effect")):
            with pytest.raises(ValueError, match=f"^{what} 0 has a non-finite coefficient$"):
                validate(obj)

    @pytest.mark.parametrize(
        "data",
        [{"matrix": [[1]]}, {"matrix": None}, {}, [], {"matrix": [[[1, 0, 0]]]},
         {"matrix": [[[1, None]]]}, {"matrix": [[[0, 0]] * 4] * 3}],
    )
    def test_malformed_two_qubit_operator_raises_value_error(self, data):
        with pytest.raises(ValueError):
            TwoQubitOperator.from_json_dict(data)
