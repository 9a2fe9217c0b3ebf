"""Transfer machinery between prepare-and-measure and Bell certificates.

For unbiased dichotomic measurements the two pictures carry the same
correlations: append the complement I - rho_x of every trusted state (which
flips the sign of its correlator row), turn each state into a dichotomic
measurement with first effect rho_x^T, and the single correlators of the
doubled PM scenario coincide exactly with the full correlators on the
maximally entangled state.  A separating witness therefore crosses over with
its classical bound intact: the PM bound over two-message strategies on the
doubled scenario equals the local-hidden-variable bound of the same
(antisymmetrised) coefficients.  This module implements the crossing in both
the value-level check and the end-to-end certification pipeline, plus a
see-saw search over ensembles for the existential quantifier.  Every PM
classical bound here comes from PMPolytope.lmo, which enumerates encodings or
response tables, whichever is cheaper, and each bound is computed once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .correlations import (
    bell_behavior_phi_plus,
    pm_behavior,
    pm_correlators,
    phi_plus_correlator,
    to_correlators,
)
from .gallery import pauli_eigenstate_ensemble
from .polytope import (
    MembershipVerdict,
    PMPolytope,
    Witness,
    bell_lmo,
    fw_membership,
)
from .qcore import (
    Assemblage,
    DichotomicMeasurement,
    Ensemble,
    QubitState,
    _Record,
    check_unbiased,
    transpose,
    validate,
)

WITNESS_TRANSFER_TOL = 1e-8


def double_ensemble(e: Ensemble) -> Ensemble:
    """Original states followed by their complements I - rho_x.

    The appended half mirrors the correlator rows: P_(x+N),y = -P_x,y for
    every unbiased measurement.
    """
    doubled = tuple(e.states) + tuple(rho.complement() for rho in e.states)
    return Ensemble(doubled)


def states_to_measurements(e: Ensemble) -> Assemblage:
    """Dichotomic measurements with first effect rho_x^T.

    The associated observables 2 rho_x^T - I are traceless, which is exactly
    what the maximally-entangled correlator identity requires.
    """
    return Assemblage(
        tuple(DichotomicMeasurement(transpose(rho.op)) for rho in e.states)
    )


def check_correlator_equality(e: Ensemble, a: Assemblage) -> float:
    """Max |C'_xy - P'_xy| between the doubled PM correlators and the Bell side.

    P' comes from Born-rule traces on the doubled ensemble; C' from the
    closed-form maximally-entangled correlator of the transposed-state
    measurements against the same Bob assemblage.  The identity is exact for
    unbiased measurements, so the return value is numerical noise.  e and a
    must pass validate().
    """
    validate(e)
    validate(a)
    check_unbiased(a, "the PM-Bell transfer needs tr(B_y) = 0")
    doubled = double_ensemble(e)
    p_vals = pm_correlators(doubled, a).values
    c_vals = _phi_plus_table(states_to_measurements(doubled), a)
    return float(np.max(np.abs(c_vals - p_vals)))


def _phi_plus_table(alice: Assemblage, bob: Assemblage) -> np.ndarray:
    """Closed-form phi+ correlators <A_x (x) B_y>, Alice's settings as rows."""
    return np.array([[phi_plus_correlator(a.observable, b.observable) for b in bob] for a in alice])


def _antisymmetrize(M: np.ndarray) -> np.ndarray:
    """Project doubled-scenario coefficients onto the sign-flip-symmetric form.

    The doubled classical set is invariant under swapping the two halves while
    negating, and doubled quantum points are themselves antisymmetric, so this
    projection never weakens a witness: Q is preserved and L cannot grow.
    """
    if M.shape[0] % 2 != 0:
        raise ValueError("a doubled-scenario witness needs an even number of rows")
    n = M.shape[0] // 2
    top = (M[:n] - M[n:]) / 2.0
    return np.vstack([top, -top])


def _correlator_witness(witness: Witness) -> Witness:
    """A behaviour witness as correlator coefficients W = (M_0 - M_1) / 2.

    Q and L both lose the offset sum (M_0 + M_1) / 2, so Q - L stays.
    """
    M = witness.M
    W = (M[:, :, 0] - M[:, :, 1]) / 2.0
    offset = float(np.sum(M[:, :, 0] + M[:, :, 1]) / 2.0)
    return Witness(W, witness.L - offset, witness.Q - offset)


def map_pm_witness_to_bell(witness: Witness) -> Witness:
    """Cross a doubled-scenario PM correlator witness into the Bell scenario.

    The coefficient matrix transfers unchanged (after antisymmetrisation,
    which is exact on doubled points).  The local bound is computed exactly
    by sign enumeration and must match the two-message PM bound of the
    outcome coefficients (M, -M) from PMPolytope.lmo: a mismatch would mean
    one of the oracles is broken, so it raises.  On M = [T; -T] the bound
    is twice T's.
    """
    M = _antisymmetrize(np.asarray(witness.M, dtype=float))
    _, l_bell = bell_lmo(M)
    _, l_pm = PMPolytope(2, *M.shape).lmo(np.stack([M, -M], axis=-1))
    if abs(l_bell - l_pm) > WITNESS_TRANSFER_TOL:
        raise AssertionError(
            f"oracle bounds disagree: bell {l_bell!r} vs pm {l_pm!r}"
        )
    return Witness(M, l_bell, witness.Q)


@dataclass(frozen=True, eq=False)
class BellCertificate(_Record):
    """Violated correlator inequality on the physical (undoubled) Bell scenario.

    Coefficients are rescaled so the local bound is exactly 2, the CHSH
    normalisation, making quantum values comparable across scenario sizes.
    The quantum value is computed twice: from the closed-form correlators and
    from the dense Born rule on the maximally entangled state.
    """

    coefficients: np.ndarray
    local_bound: float
    quantum_value: float
    quantum_value_born: float
    alice: Assemblage

    def to_json_dict(self) -> dict:
        return {
            "coefficients": self.coefficients.tolist(),
            "local_bound": self.local_bound,
            "quantum_value": self.quantum_value,
            "quantum_value_born": self.quantum_value_born,
            "alice_effects": self.alice.to_json_list(),
        }


@dataclass(frozen=True)
class CertificationReport(_Record):
    """Everything produced by one certification run, JSON-serialisable."""

    d: int
    verdict: MembershipVerdict
    ensemble: Ensemble
    assemblage: Assemblage
    pm_witness: Witness | None = None
    bell: BellCertificate | None = None
    notes: tuple[str, ...] = ()
    wall_clock: float | None = None

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out: dict = {
            "d": self.d,
            "ensemble": self.ensemble.to_json_list(),
            "assemblage": self.assemblage.to_json_list(),
            "result": self.verdict.to_json_dict(),
            "notes": list(self.notes),
        }
        if self.pm_witness is not None:
            out["pm_witness"] = self.pm_witness.to_json_dict()
        if self.bell is not None:
            out["bell_certificate"] = self.bell.to_json_dict()
        if include_timings and self.wall_clock is not None:
            out["wall_clock_seconds"] = self.wall_clock
        return out


def _undoubled_bell_certificate(
    witness: Witness, e: Ensemble, a: Assemblage
) -> BellCertificate:
    """Reduce the transferred witness to the physical scenario and normalise L to 2.

    The top half T of [T; -T] acts on the states of e, whose transposes are
    Alice's measurements.  T's bound is L / 2, so T is scaled by 4 / L; the
    one enumeration, on the result, checks the rescale and that identity.
    """
    if witness.L <= 0.0:
        raise AssertionError("degenerate Bell witness: nonpositive local bound")
    coeff = (4.0 / witness.L) * witness.M[: len(e)]
    _, l_check = bell_lmo(coeff)
    if abs(l_check - 2.0) > WITNESS_TRANSFER_TOL:
        raise AssertionError("local bound did not rescale to 2")

    alice = states_to_measurements(e)
    q_corr = 0.0
    for term in (coeff * _phi_plus_table(alice, a)).ravel().tolist():
        q_corr += term
    dense = to_correlators(bell_behavior_phi_plus(alice, a)).values
    q_born = float(np.sum(coeff * dense))
    if abs(q_corr - q_born) > 1e-9:
        raise AssertionError(
            f"correlator and Born-rule values disagree: {q_corr!r} vs {q_born!r}"
        )
    return BellCertificate(coeff, l_check, q_corr, q_born, alice)


def certify_incompatibility(a: Assemblage, e: Ensemble, d: int) -> CertificationReport:
    """Decide whether the ensemble exposes the assemblage as non-classical.

    Doubles the ensemble with complements, tests the resulting behaviour
    against the d-message polytope with fw_membership's default tolerances,
    and, when the point falls outside with d = 2 and unbiased measurements,
    carries the witness across to a violated Bell inequality on the maximally
    entangled state.  The PM witness keeps the classical bound of
    fw_membership's final exact oracle call.  Outside at d = 2 also
    establishes that the assemblage is not jointly measurable, since a jointly
    measurable set admits a two-message model for every ensemble.  e and a
    must pass validate().
    """
    start = time.perf_counter()
    validate(e)
    validate(a)
    doubled = double_ensemble(e)
    behavior = pm_behavior(doubled, a)
    oracle = PMPolytope(d, len(doubled), len(a))
    verdict = fw_membership(behavior.data, oracle)

    notes: list[str] = []
    pm_witness: Witness | None = None
    bell_cert: BellCertificate | None = None
    if verdict.is_outside:
        assert verdict.witness is not None
        pm_witness = _correlator_witness(verdict.witness)
        if d == 2 and a.all_unbiased:
            bell_witness = map_pm_witness_to_bell(pm_witness)
            bell_cert = _undoubled_bell_certificate(bell_witness, e, a)
            notes.append(
                "outside the two-message polytope: the assemblage is not jointly "
                "measurable, and the attached Bell inequality is violated on the "
                "maximally entangled state"
            )
        elif d == 2:
            notes.append(
                "outside the two-message polytope, but the Bell transfer needs "
                "unbiased measurements; no Bell certificate attached"
            )
    elif verdict.is_inside:
        notes.append(
            f"the doubled behaviour admits a {d}-message classical model for "
            "this ensemble; no conclusion about other ensembles"
        )

    return CertificationReport(
        d=d,
        verdict=verdict,
        ensemble=e,
        assemblage=a,
        pm_witness=pm_witness,
        bell=bell_cert,
        notes=tuple(notes),
        wall_clock=time.perf_counter() - start,
    )


def _diagonal_seeds(a: Assemblage, n_states: int) -> list[np.ndarray]:
    """Bloch directions bisecting pairs of measurement axes, with complements,
    padded with the six Pauli eigenstates.

    These are the natural candidates for correlator-type violations: for two
    orthogonal measurement directions they are exactly the optimal settings.
    """
    dirs = []
    axes = [m.effect0.v for m in a]
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            ni = np.linalg.norm(axes[i])
            nj = np.linalg.norm(axes[j])
            if ni == 0.0 or nj == 0.0:
                continue
            u, v = axes[i] / ni, axes[j] / nj
            for cand in (u + v, u - v):
                norm = np.linalg.norm(cand)
                if norm > 1e-12:
                    dirs.append(cand / norm)
                    dirs.append(-cand / norm)
    while len(dirs) < n_states:
        dirs.extend(rho.bloch for rho in pauli_eigenstate_ensemble())
    return dirs[:n_states]


def _random_pure_ensemble(n_states: int, rng: np.random.Generator) -> Ensemble:
    vecs = rng.normal(size=(n_states, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return Ensemble(tuple(QubitState.pure(v) for v in vecs))


def _normalized_violation(witness: Witness) -> float:
    """Q - L of the correlator witness rescaled to classical bound 2.

    Each strategy's value on M exceeds its value on the embedded correlator
    witness by the same offset, so the witness's exact L minus that offset is
    the correlator bound; no oracle call is needed.
    """
    corr = _correlator_witness(witness)
    if corr.L <= 0.0:
        return 0.0
    scale = 2.0 / corr.L
    return scale * corr.Q - 2.0


def seesaw_ensemble_search(
    a: Assemblage,
    d: int,
    rounds: int,
    n_states: int = 8,
    rng: np.random.Generator | None = None,
    initial: Ensemble | None = None,
) -> tuple[Ensemble, float]:
    """Alternating search for an ensemble whose behaviour escapes the polytope.

    Each round runs the membership test on the current ensemble.  Outside: the
    witness fixes the states, each rho_x becoming the projector onto the top
    eigenvector of sum_yb M[x,y,b] B_b|y, the closed-form best response.
    Inside: restart, alternating random pure ensembles with ones seeded along
    pairwise bisectors of the measurement axes.  Returns the best ensemble
    found and its certified violation (Q - L of the correlator witness in the
    bound-2 normalisation), or the initial ensemble and 0.0 when every round
    stayed classical.  rounds must be nonnegative, and a (and initial, when
    given) must pass validate().  After a climb, Frank-Wolfe warm-starts from
    the last verdict's active set; a restart starts cold.  A behaviour met
    again (such as the bisector seed after every other restart) reuses its
    first verdict instead of being decided again.
    """
    if rounds < 0:
        raise ValueError(f"see-saw rounds must be nonnegative, got {rounds}")
    validate(a)
    rng = rng if rng is not None else np.random.default_rng()
    if initial is not None:
        validate(initial)
        current = initial
        n_states = len(initial)
    else:
        current = _random_pure_ensemble(n_states, rng)
    seeded = Ensemble(tuple(QubitState.pure(s) for s in _diagonal_seeds(a, n_states)))
    oracle = PMPolytope(d, n_states, len(a))
    best_gap = 0.0
    best_ensemble = current
    restart_count = 0
    warm: tuple = ()
    verdicts: dict[bytes, MembershipVerdict] = {}
    for _ in range(rounds + 1):
        behavior = pm_behavior(current, a)
        key = behavior.data.tobytes()
        if key not in verdicts:
            verdicts[key] = fw_membership(behavior.data, oracle, start=warm)
        verdict = verdicts[key]
        if verdict.is_outside:
            assert verdict.witness is not None
            gap = _normalized_violation(verdict.witness)
            if gap > best_gap:
                best_gap = gap
                best_ensemble = current
            current = _climb(current, verdict.witness, a)
            warm = verdict.strategies
        else:
            warm = ()
            if restart_count % 2 == 0:
                current = seeded
            else:
                current = _random_pure_ensemble(n_states, rng)
            restart_count += 1
    return best_ensemble, best_gap


def _climb(e: Ensemble, witness: Witness, a: Assemblage) -> Ensemble:
    """Per-state best response to a behaviour witness, in closed form.

    State x moves along sum_yb M[x,y,b] v_b|y (kept where that vanishes).
    The loop runs over settings for all states at once, adding in the
    per-state order, so the result is the same to the bit.
    """
    directions = np.zeros((len(e), 3))
    for y, m in enumerate(a):
        directions += witness.M[:, y, 0, None] * m.effect0.v
        directions += witness.M[:, y, 1, None] * m.effect1.v
    return Ensemble(
        tuple(
            QubitState.pure(direction) if np.linalg.norm(direction) > 1e-12 else rho
            for rho, direction in zip(e, directions)
        )
    )
