"""Independent re-checks of the evidence each decision returns.

Each check returns None when the evidence holds and a one-line reason when it
does not.  Points and vertices are rebuilt here from Bloch vectors and
strategy tables, not taken from the solver; classical bounds come from a
fresh call of the module-level exact oracle.
"""

from __future__ import annotations

import numpy as np

INSIDE_TOL = 1e-6
WEIGHT_SUM_TOL = 1e-9
BELL_BOUND_TOL = 1e-8


def pm_point(states: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """p(b|x,y) from state Bloch vectors r_x and first-effect (s_y, v_y) rows.

    tr(rho E) = 2 (1/2 s + r/2 . v) for rho = (I + r.sigma)/2, E = s I + v.sigma.
    """
    p0 = effects[None, :, 0] + states @ effects[:, 1:].T
    return np.stack([p0, 1.0 - p0], axis=-1)


def pm_vertex(strategy, d: int, shape: tuple[int, int, int]) -> np.ndarray | None:
    """Deterministic behaviour of a PM strategy, or None if it is not a vertex."""
    n_x, n_y, _ = shape
    f, g = strategy.f, strategy.g
    if len(f) != n_x or len(g) != d or any(len(row) != n_y for row in g):
        return None
    if any(a not in range(d) for a in f) or any(b not in (0, 1) for row in g for b in row):
        return None
    v = np.zeros(shape)
    for x, a in enumerate(f):
        for y in range(n_y):
            v[x, y, g[a][y]] = 1.0
    return v


def sign_vertex(strategy, shape: tuple[int, int]) -> np.ndarray | None:
    alpha, beta = strategy.alpha, strategy.beta
    if (len(alpha), len(beta)) != shape:
        return None
    if any(s not in (1, -1) for s in (*alpha, *beta)):
        return None
    return np.outer(alpha, beta).astype(float)


def check_inside(verdict, point: np.ndarray, vertex) -> str | None:
    """Weights are a convex combination of vertices that reproduces the point."""
    w = np.asarray(verdict.weights, dtype=float)
    if verdict.strategies is None or len(verdict.strategies) != len(w):
        return "inside verdict without one strategy per weight"
    if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
        return f"weights are not convex (min {w.min():.3g}, sum {w.sum():.12g})"
    total = np.zeros_like(point)
    for weight, strategy in zip(w, verdict.strategies):
        v = vertex(strategy)
        if v is None:
            return f"returned strategy {strategy!r} is not a vertex"
        total += weight * v
    err = float(np.linalg.norm(total - point))
    if not err < INSIDE_TOL:
        return f"decomposition misses the point by {err:.3g}"
    return None


def check_outside(verdict, point: np.ndarray, lmo) -> str | None:
    """Q = M . point exceeds a freshly computed classical bound L = max_v M . v."""
    if verdict.witness is None:
        return "outside verdict without a witness"
    M = np.asarray(verdict.witness.M, dtype=float)
    _, fresh_l = lmo(M)
    q = float(np.sum(M * point))
    if not q > fresh_l:
        return f"witness does not separate: Q {q!r} <= fresh L {fresh_l!r}"
    return None


def check_membership(verdict, point, vertex, lmo) -> str | None:
    if verdict.status == "inside":
        return check_inside(verdict, point, vertex)
    if verdict.status == "outside":
        return check_outside(verdict, point, lmo)
    if verdict.status == "undecided":
        return None
    return f"unknown verdict {verdict.status!r}"


def check_bell_certificate(cert, bob_effects: np.ndarray, bell_lmo) -> str | None:
    """Local bound re-enumerates to 2 and the phi+ quantum value exceeds it.

    The quantum value is recomputed from Bloch vectors: for traceless
    observables A = a.sigma, B = b.sigma the phi+ correlator tr(A^T B)/2 is
    a' . b with a' = (a_x, -a_y, a_z).
    """
    coeff = np.asarray(cert.coefficients, dtype=float)
    _, bound = bell_lmo(coeff)
    if abs(bound - 2.0) > BELL_BOUND_TOL:
        return f"Bell local bound re-enumerates to {bound!r}, not 2"
    if not cert.quantum_value_born > 2.0:
        return f"Born-rule quantum value {cert.quantum_value_born!r} does not exceed 2"
    alice = np.array([2.0 * m.effect0.v for m in cert.alice]) * np.array([1.0, -1.0, 1.0])
    bob = 2.0 * bob_effects[:, 1:]
    q = float(np.sum(coeff * (alice @ bob.T)))
    if not q > 2.0 or abs(q - cert.quantum_value_born) > 1e-9:
        return f"recomputed quantum value {q!r} vs reported {cert.quantum_value_born!r}"
    return None
