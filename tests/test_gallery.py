import math

import numpy as np
import pytest

from incompat.gallery import (
    constants,
    pauli_eigenstate_ensemble,
    pauli_set,
    planar_set,
    snub_cube_directions,
    snub_cube_set,
)
from incompat.qcore import DichotomicMeasurement, validate


class TestPauliSet:
    def test_xz_projective(self):
        a = pauli_set("xz", 1.0)
        assert len(a) == 2
        assert np.allclose(2 * a[0].effect0.v, (1, 0, 0))
        assert np.allclose(2 * a[1].effect0.v, (0, 0, 1))

    def test_triple_at_threshold_is_valid(self):
        a = pauli_set("xyz", 1 / math.sqrt(3))
        assert validate(a) is None
        assert all(m.visibility == pytest.approx(1 / math.sqrt(3)) for m in a)

    def test_zero_eta_gives_trivial_measurements(self):
        a = pauli_set("xyz", 0.0)
        assert all(m.effect0.vnorm == 0.0 for m in a)

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli_set("xw", 1.0)


class TestPlanarSet:
    def test_two_directions_quarter_turn_apart(self):
        a = planar_set(2, 1.0)
        d0 = 2 * a[0].effect0.v
        d1 = 2 * a[1].effect0.v
        assert np.allclose(d0, (1, 0, 0), atol=1e-15)
        assert np.allclose(d1, (0, 0, 1), atol=1e-12)
        assert abs(float(np.dot(d0, d1))) < 1e-12

    def test_single_measurement_trivially_compatible(self):
        a = planar_set(1, 0.37)
        assert len(a) == 1 and validate(a) is None

    def test_directions_stay_planar(self):
        a = planar_set(7, 1 / math.sqrt(2))
        for m in a:
            assert m.effect0.v[1] == 0.0
            assert m.visibility == pytest.approx(1 / math.sqrt(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            planar_set(0, 1.0)


class TestSnubCube:
    def test_twenty_four_distinct_unit_directions(self):
        dirs = snub_cube_directions()
        assert dirs.shape == (24, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        gram = dirs @ dirs.T
        np.fill_diagonal(gram, 0.0)
        assert np.max(gram) < 1.0 - 1e-9  # pairwise distinct

    def test_five_equidistant_nearest_neighbours(self):
        dirs = snub_cube_directions()
        gram = dirs @ dirs.T
        np.fill_diagonal(gram, -2.0)
        for i in range(24):
            row = np.sort(gram[i])[::-1]
            assert row[0] - row[4] < 1e-12  # five equal nearest neighbours
            assert row[4] - row[5] > 1e-3  # strictly closer than the sixth

    def test_chiral_no_antipodal_pairs(self):
        dirs = snub_cube_directions()
        for d in dirs:
            assert np.min(np.linalg.norm(dirs + d, axis=1)) > 1e-9

    def test_mirror_is_a_different_set(self):
        dirs = snub_cube_directions()
        mirrored = snub_cube_directions(mirror=True)
        assert max(
            float(np.min(np.linalg.norm(mirrored - d, axis=1))) for d in dirs
        ) > 1e-3

    def test_mirror_is_the_negated_set(self):
        # As measurement sets the chiral forms coincide up to outcome labels.
        def lex(dirs):
            return dirs[np.lexsort(dirs.T[::-1])]

        np.testing.assert_array_equal(
            lex(snub_cube_directions(mirror=True)), lex(-snub_cube_directions())
        )

    def test_assemblage_validates(self):
        assert validate(snub_cube_set(1.0)) is None
        assert validate(snub_cube_set(0.4, mirror=True)) is None
        assert len(snub_cube_set(1.0)) == 24


class TestDirectConstruction:
    """Each builder gives exactly the measurements built one by one."""

    @pytest.mark.parametrize(
        "build, directions, eta",
        [
            (lambda: pauli_set("zx", 0.75), [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)], 0.75),
            (lambda: pauli_set("xyz", 1.0), np.eye(3), 1.0),
            (
                lambda: planar_set(5, 0.7),
                [(math.cos(k * math.pi / 5), 0.0, math.sin(k * math.pi / 5)) for k in range(5)],
                0.7,
            ),
            (lambda: snub_cube_set(0.9), snub_cube_directions(), 0.9),
            (lambda: snub_cube_set(0.9, mirror=True), snub_cube_directions(mirror=True), 0.9),
        ],
    )
    def test_bit_identical_to_one_by_one(self, build, directions, eta):
        built = build()
        direct = [DichotomicMeasurement.noisy_projective(d, eta) for d in directions]
        assert len(built) == len(direct)
        for m, ref in zip(built, direct):
            assert m.effect0.s == ref.effect0.s
            assert (m.effect0.v == ref.effect0.v).all()

    def test_pauli_axes_are_checked_before_the_visibility(self):
        with pytest.raises(ValueError, match="unknown axes"):
            pauli_set("xw", 1.5)
        with pytest.raises(ValueError, match="at least one axis"):
            pauli_set("", 1.5)


class TestEigenstateEnsemble:
    def test_six_pure_states(self):
        e = pauli_eigenstate_ensemble()
        assert len(e) == 6
        assert all(s.is_pure for s in e)
        assert validate(e) is None

    def test_antipodal_pairs_sum_to_identity(self):
        e = pauli_eigenstate_ensemble()
        for i in (0, 2, 4):
            total = e[i].op + e[i + 1].op
            assert total.s == pytest.approx(1.0) and total.vnorm == pytest.approx(0.0)

    def test_cross_axis_overlap_is_half(self):
        e = pauli_eigenstate_ensemble()
        # tr(rho sigma) = (1 + r.s)/2 = 1/2 for orthogonal Bloch vectors
        for i in (0, 1):
            for j in (2, 3, 4, 5):
                overlap = 2 * (
                    e[i].op.s * e[j].op.s + float(np.dot(e[i].op.v, e[j].op.v))
                )
                assert overlap == pytest.approx(0.5, abs=1e-15)


class TestConstants:
    def test_values(self):
        c = constants()
        assert c["jm_pair_xz"] == pytest.approx(1 / math.sqrt(2))
        assert c["jm_triple"] == pytest.approx(1 / math.sqrt(3))
        assert c["pm2_planar"] == pytest.approx(1 / math.sqrt(2))
        assert c["pm2_all_lower"] == 0.6875
        assert c["pm2_all_upper"] == 0.6961
