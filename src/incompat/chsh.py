"""CHSH operator machinery: the norm upper bound for a pair of Bob observables
and the explicit Alice settings that attain it on the maximally entangled state.

For qubit observables B0, B1 the operator norm bound

    ||A0 (x) B0 + A1 (x) B0 + A0 (x) B1 - A1 (x) B1|| <= ||B0 + B1|| + ||B0 - B1||

holds for any admissible A0, A1.  When B0 and B1 are traceless the bound is
tight on |phi+>: choosing |psi_0>, |psi_1> as eigenvectors of B0 + B1 and
B0 - B1 with nonnegative expectation (flipping to the orthogonal complement,
the universal NOT of the state, whenever the raw eigenvector gives a negative
one) and setting A_x = 2 |psi_x><psi_x|^T - I achieves equality.
"""

from __future__ import annotations

import numpy as np

from .qcore import (
    ATOL_VALID,
    PHI_PLUS_VEC,
    DichotomicMeasurement,
    QubitOperator,
    QubitState,
    TwoQubitOperator,
    operator_norm,
    transpose,
)


def _check_observable(op: QubitOperator, name: str) -> None:
    if not operator_norm(op) <= 1.0 + ATOL_VALID:  # NaN fails too
        raise ValueError(f"{name} must have eigenvalues in [-1, 1]")


def chsh_operator(
    a0: QubitOperator, a1: QubitOperator, b0: QubitOperator, b1: QubitOperator
) -> TwoQubitOperator:
    """A0 (x) B0 + A1 (x) B0 + A0 (x) B1 - A1 (x) B1 as a dense 4x4 operator."""
    for name, op in (("A0", a0), ("A1", a1), ("B0", b0), ("B1", b1)):
        _check_observable(op, name)
    a0m, a1m, b0m, b1m = (op.matrix() for op in (a0, a1, b0, b1))
    mat = (
        np.kron(a0m, b0m)
        + np.kron(a1m, b0m)
        + np.kron(a0m, b1m)
        - np.kron(a1m, b1m)
    )
    return TwoQubitOperator(mat)


def chsh_norm_bound(b0: QubitOperator, b1: QubitOperator) -> float:
    """||B0 + B1|| + ||B0 - B1||.

    A value <= 2 certifies that the pair cannot violate the CHSH inequality on
    any shared state, i.e. the pair is Bell jointly measurable.
    """
    _check_observable(b0, "B0")
    _check_observable(b1, "B1")
    return operator_norm(b0 + b1) + operator_norm(b0 - b1)


def _attaining_state(op: QubitOperator) -> QubitState:
    """Pure state with <psi| op |psi> = ||op||, for traceless op.

    The norm is attained by an eigenvector of the eigenvalue of largest
    magnitude; if its expectation is negative the orthogonal complement (the
    universal NOT of the state) flips the sign, which works because traceless
    operators obey tr(P op) = -tr((I - P) op).
    """
    r = op.vnorm
    if r == 0.0:
        return QubitState.pure((0.0, 0.0, 1.0))
    lo, hi = op.eigenvalues()
    direction = -op.v / r if abs(lo) >= abs(hi) else op.v / r
    psi = QubitState.pure(direction)
    expectation = 2.0 * float(np.dot(psi.op.v, op.v))
    if expectation < 0.0:
        psi = psi.complement()
    return psi


def optimal_alice_settings(
    b0: QubitOperator, b1: QubitOperator
) -> tuple[QubitOperator, QubitOperator, float]:
    """Alice observables attaining <phi+|CHSH|phi+> = ||B0 + B1|| + ||B0 - B1||.

    Requires B0, B1 with norms at most one, traceless within the tolerance of
    is_unbiased.  Returns (A0, A1, value) where A0, A1 are +-1 observables and
    value is the dense phi+ expectation, asserted equal to chsh_norm_bound
    within 1e-9.
    """
    for name, op in (("B0", b0), ("B1", b1)):
        _check_observable(op, name)
        # tr(2E - I) = 4 (s - 1/2), so this is is_unbiased's tolerance, exactly
        if abs(op.trace()) > 4.0 * ATOL_VALID:
            raise ValueError(f"{name} must be traceless")
    psi0 = _attaining_state(b0 + b1)
    psi1 = _attaining_state(b0 - b1)
    # A_x = 2 |psi_x><psi_x|^T - I
    a0 = 2.0 * transpose(psi0.op) - QubitOperator.identity()
    a1 = 2.0 * transpose(psi1.op) - QubitOperator.identity()
    value = chsh_operator(a0, a1, b0, b1).expectation(PHI_PLUS_VEC)
    bound = chsh_norm_bound(b0, b1)
    if abs(value - bound) > 1e-9:
        raise AssertionError(
            f"attained value {value!r} does not match norm bound {bound!r}"
        )
    return a0, a1, value


def bell_jm_certified(m0: DichotomicMeasurement, m1: DichotomicMeasurement) -> bool:
    """True when the norm bound certifies the pair can never violate CHSH."""
    return chsh_norm_bound(m0.observable, m1.observable) <= 2.0 + ATOL_VALID
