"""Generators for the canonical scenarios: Pauli sets, planar fans, the snub
cube, the Pauli eigenstate ensemble, and the named noise thresholds."""

from __future__ import annotations

import itertools
import math
from typing import Iterable

import numpy as np

from .qcore import Assemblage, DichotomicMeasurement, Ensemble, QubitState

_AXIS_DIRECTIONS = {
    "x": (1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0),
    "z": (0.0, 0.0, 1.0),
}


def _noisy_set(directions: Iterable, eta: float) -> Assemblage:
    """Noisy projective measurements at visibility eta along each direction."""
    return Assemblage(DichotomicMeasurement.noisy_projective(d, eta) for d in directions)


def pauli_set(axes: Iterable[str], eta: float) -> Assemblage:
    """Noisy projective measurements along the requested Pauli axes (x, y, z order)."""
    requested = set(axes)
    unknown = requested - set(_AXIS_DIRECTIONS)
    if unknown:
        raise ValueError(f"unknown axes {sorted(unknown)}; choose from x, y, z")
    if not requested:
        raise ValueError("at least one axis is required")
    return _noisy_set((_AXIS_DIRECTIONS[ax] for ax in "xyz" if ax in requested), eta)


def planar_set(n: int, eta: float) -> Assemblage:
    """n noisy projective measurements fanned through the x-z plane.

    Bloch directions are (cos(k pi / n), 0, sin(k pi / n)) for k = 0 .. n-1;
    antipodal directions are redundant for dichotomic measurements, so the fan
    covers a half-circle.
    """
    if n < 1:
        raise ValueError("need at least one measurement")
    dirs = [
        (math.cos(k * math.pi / n), 0.0, math.sin(k * math.pi / n)) for k in range(n)
    ]
    return _noisy_set(dirs, eta)


# Real root of t^3 = t^2 + t + 1 (the tribonacci constant); seeding the snub
# cube from (1, 1/t, t) with parity-matched permutations and sign flips gives
# all 24 vertices of one chiral form.
_TRIBONACCI = (
    1.0
    + np.cbrt(19.0 + 3.0 * np.sqrt(33.0))
    + np.cbrt(19.0 - 3.0 * np.sqrt(33.0))
) / 3.0


def snub_cube_directions(mirror: bool = False) -> np.ndarray:
    """24 unit vectors at the vertices of a snub cube, lexicographically sorted.

    mirror=True returns the reflected form (z negated).  The two chiral forms
    are inequivalent as point sets under rotations, but the mirrored set is
    exactly the negated generated set.  A measurement along -d is the one
    along d with its outcomes swapped, so as measurement scenarios the two
    forms are the same up to outcome labels and setting order.
    """
    t = _TRIBONACCI
    seed = np.array([1.0, 1.0 / t, t])
    even_perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    odd_perms = [(0, 2, 1), (2, 1, 0), (1, 0, 2)]
    points = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        flips = sum(1 for s in signs if s < 0)
        perms = even_perms if flips % 2 == 0 else odd_perms
        for perm in perms:
            points.append([signs[i] * seed[perm[i]] for i in range(3)])
    dirs = np.array(points)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if mirror:
        dirs[:, 2] *= -1.0
    return dirs[np.lexsort((dirs[:, 2], dirs[:, 1], dirs[:, 0]))]


def snub_cube_set(eta: float, mirror: bool = False) -> Assemblage:
    """24 noisy projective measurements along snub-cube vertex directions.

    mirror=True gives the same measurements up to outcome labels and order.
    """
    return _noisy_set(snub_cube_directions(mirror=mirror), eta)


def pauli_eigenstate_ensemble() -> Ensemble:
    """The six pure states with Bloch vectors +-e_x, +-e_y, +-e_z."""
    dirs = [
        (1.0, 0, 0),
        (-1.0, 0, 0),
        (0, 1.0, 0),
        (0, -1.0, 0),
        (0, 0, 1.0),
        (0, 0, -1.0),
    ]
    return Ensemble(tuple(QubitState.pure(d) for d in dirs))


def constants() -> dict[str, float]:
    """Named visibility thresholds used throughout the test scenarios.

    jm_pair_xz     joint measurability of the noisy X/Z pair
    jm_triple      joint measurability of the noisy Pauli triple
    pm2_planar     bit-simulability of all noisy planar projective measurements
    pm2_all_lower  certified lower bound for all noisy projective measurements
    pm2_all_upper  best known upper bound for the same threshold
    """
    return {
        "jm_pair_xz": 1.0 / math.sqrt(2.0),
        "jm_triple": 1.0 / math.sqrt(3.0),
        "pm2_planar": 1.0 / math.sqrt(2.0),
        "pm2_all_lower": 0.6875,
        "pm2_all_upper": 0.6961,
    }
