"""Joint-measurability decisions for finite sets of dichotomic qubit measurements.

Three routes are provided, matching how much structure the input has, and
decide() tries them in this order:

* a closed-form norm criterion for pairs of unbiased measurements,
* the exact visibility threshold for the noisy Pauli triple,
* a two-sided feasibility search for arbitrary finite assemblages that looks
  for a mother POVM whose deterministic post-processings reproduce every
  measurement, or for a dual witness that no such mother exists.

The feasibility search parametrises the mother by one effect per deterministic
response function lambda: y -> b (2^N outcomes for N measurements).  In Bloch
coordinates the constraint set is the intersection of a product of ice-cream
cones (positivity of each effect) with an affine subspace (completeness plus
the marginalisation identities), so Dykstra's alternating projections apply
with closed-form projections on both sides.  When the two sets do not meet,
Dykstra's displacement converges to the gap vector between them (Bauschke and
Borwein, J. Approx. Theory 79, 1994), which is a Farkas certificate of
incompatibility.  The search returns a verified mother POVM, a witness
re-verified in exact rational arithmetic, or Undecided.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import (
    ATOL_VALID,
    Assemblage,
    DichotomicMeasurement,
    QubitOperator,
    operator_norm,
)

MAX_SETTINGS = 10  # 2^10 mother outcomes; beyond this the parent blows up


@dataclass(frozen=True)
class MotherPOVM:
    """Parent measurement plus the deterministic response table.

    responses[k][y] is the outcome assigned to measurement y when the parent
    yields outcome k, so marginalising the effects over response classes must
    reproduce the original assemblage.
    """

    effects: tuple[QubitOperator, ...]
    responses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.effects) != len(self.responses):
            raise ValueError("one response row is required per effect")

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)

    @property
    def n_settings(self) -> int:
        return len(self.responses[0]) if self.responses else 0

    def marginal(self, y: int, b: int) -> QubitOperator:
        """Sum of parent effects mapped to outcome b of measurement y."""
        total = QubitOperator.zero()
        for effect, resp in zip(self.effects, self.responses):
            if resp[y] == b:
                total = total + effect
        return total

    def completeness_error(self) -> float:
        total = QubitOperator.zero()
        for effect in self.effects:
            total = total + effect
        return max(abs(total.s - 1.0), float(np.max(np.abs(total.v))))

    def min_eigenvalue(self) -> float:
        return min(e.s - e.vnorm for e in self.effects)

    def reconstruction_error(self, a: Assemblage) -> float:
        """Largest Bloch-coordinate deviation between marginals and targets."""
        worst = 0.0
        for y, m in enumerate(a):
            marg = self.marginal(y, 0)
            worst = max(
                worst,
                abs(marg.s - m.effect0.s),
                float(np.max(np.abs(marg.v - m.effect0.v))),
            )
        return worst

    def is_valid_for(self, a: Assemblage, tol: float) -> bool:
        return (
            self.min_eigenvalue() >= -tol
            and self.completeness_error() <= tol
            and self.reconstruction_error(a) <= tol
        )

    def to_json_dict(self) -> dict:
        return {
            "effects": [e.to_json_dict() for e in self.effects],
            "responses": [list(r) for r in self.responses],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MotherPOVM":
        return cls(
            tuple(QubitOperator.from_json_dict(e) for e in data["effects"]),
            tuple(tuple(int(b) for b in row) for row in data["responses"]),
        )


def _dyadic(values) -> tuple[list[int], int]:
    """Finite floats as integer numerators over one power-of-two denominator."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _exact_witness_check(
    ops: tuple[QubitOperator, ...], a: Assemblage
) -> tuple[bool, float]:
    """(ops = (z, *f) proves a incompatible, the witness value), both exact.

    Every float is a dyadic rational, so scaling all coefficients of the
    witness, and separately all of the assemblage, by one power of two makes
    every comparison an integer one.
    """
    coeffs = [c for op in ops for c in (op.s, *op.v)]
    t_coeffs = [1.0, 0.0, 0.0, 0.0]
    for m in a:
        t_coeffs += [m.effect0.s, *m.effect0.v]
    if len(ops) != len(a) + 1 or not all(map(math.isfinite, coeffs + t_coeffs)):
        return False, math.nan
    w, w_den = _dyadic(coeffs)
    t, t_den = _dyadic(t_coeffs)
    blocks = [w[:4]]
    for y in range(1, len(ops)):
        row = w[4 * y : 4 * y + 4]
        blocks += [[b + c for b, c in zip(block, row)] for block in blocks]
    psd = all(s >= 0 and s * s >= x * x + u * u + v * v for s, x, u, v in blocks)
    dot = sum(wi * ti for wi, ti in zip(w, t))
    # tr(P Q) is twice the Bloch inner product of P and Q.
    return psd and dot < 0, 2 * dot / (w_den * t_den)


@dataclass(frozen=True)
class JMWitness:
    """Farkas certificate that no mother POVM reproduces an assemblage.

    One Hermitian operator per affine constraint of the mother search: z for
    completeness (sum_k E_k = I) and f[y] for the outcome-0 class of
    measurement y.  It proves incompatibility when every block
    z + sum_{y: k(y)=0} f[y], one per response function k, is positive
    semidefinite while value = tr(z) + sum_y tr(f[y] B_{0|y}) < 0, since a
    mother POVM would give value = sum_k tr(block_k E_k) >= 0.
    """

    z: QubitOperator
    f: tuple[QubitOperator, ...]
    value: float

    def verify(self, a: Assemblage) -> bool:
        """Exact re-check that the witness proves a incompatible."""
        return _exact_witness_check((self.z, *self.f), a)[0]

    def to_json_dict(self) -> dict:
        return {
            "z": self.z.to_json_dict(),
            "f": [op.to_json_dict() for op in self.f],
            "value": self.value,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JMWitness":
        return cls(
            QubitOperator.from_json_dict(data["z"]),
            tuple(QubitOperator.from_json_dict(op) for op in data["f"]),
            float(data["value"]),
        )


@dataclass(frozen=True)
class JMVerdict:
    """Outcome of a joint-measurability decision.

    status is one of "jm" (with a verified mother POVM), "not_jm" (with the
    criterion that rejected and its evidence: the rejected pair and its
    margin, the triple's visibility, or an exactly verified Dykstra gap
    witness), or "undecided" (feasibility residual after the iteration
    budget).
    """

    status: str
    mother: MotherPOVM | None = None
    reason: str | None = None
    residual: float | None = None
    iterations: int | None = None
    pair: tuple[int, int] | None = None
    margin: float | None = None
    visibility: float | None = None
    witness: JMWitness | None = None

    @property
    def is_jm(self) -> bool:
        return self.status == "jm"

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.status}
        if self.mother is not None:
            out["mother"] = self.mother.to_json_dict()
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        for key in ("reason", "residual", "iterations", "pair", "margin", "visibility"):
            if (value := getattr(self, key)) is not None:
                out[key] = value
        return out


def busch_pair_criterion(
    m0: DichotomicMeasurement, m1: DichotomicMeasurement
) -> tuple[bool, float]:
    """Norm criterion for a pair of unbiased dichotomic qubit measurements.

    The pair is jointly measurable iff ||B0 + B1|| + ||B0 - B1|| <= 2 for the
    observables B_y; the returned margin is 2 minus that sum, so nonnegative
    margins certify compatibility.  Raises for biased inputs, where this
    criterion does not apply.
    """
    for idx, m in enumerate((m0, m1)):
        if not m.is_unbiased:
            raise ValueError(
                f"measurement {idx} is biased (tr(effect0) != 1); "
                "the pair norm criterion applies to unbiased measurements only"
            )
    b0, b1 = m0.observable, m1.observable
    margin = 2.0 - operator_norm(b0 + b1) - operator_norm(b0 - b1)
    return (margin >= -ATOL_VALID, margin)


def mother_povm_xz(eta: float) -> MotherPOVM:
    """Four-outcome parent E_ij = (I + eta (i sx + j sz))/4 for the noisy X/Z pair.

    Positivity requires eta <= 1/sqrt(2).  Marginalising over j reproduces the
    noisy x measurement, marginalising over i the noisy z measurement.
    """
    if not 0.0 <= eta <= 1.0 / math.sqrt(2.0) + ATOL_VALID:
        raise ValueError(
            f"eta = {eta} leaves the parent non-positive; need 0 <= eta <= 1/sqrt(2)"
        )
    effects = []
    responses = []
    for i in (1.0, -1.0):
        for j in (1.0, -1.0):
            effects.append(QubitOperator(0.25, (0.25 * eta * i, 0.0, 0.25 * eta * j)))
            responses.append((0 if i > 0 else 1, 0 if j > 0 else 1))
    return MotherPOVM(tuple(effects), tuple(responses))


def noisy_pauli_triple_jm(eta: float) -> bool:
    """Exact threshold for the noisy Pauli triple: compatible iff eta <= 1/sqrt(3)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {eta}")
    return eta <= 1.0 / math.sqrt(3.0) + 1e-12


def _orthogonal_triple_visibility(a: Assemblage) -> float | None:
    """Common visibility when the assemblage is an orthogonal unbiased triple.

    Such a triple is a rotated noisy Pauli triple, so the exact threshold
    applies to it unchanged.
    """
    if len(a) != 3 or not a.all_unbiased:
        return None
    etas = [m.visibility for m in a]
    if max(etas) - min(etas) > 1e-12 or min(etas) == 0.0:
        return None
    dirs = [2.0 * m.effect0.v / eta for m, eta in zip(a, etas)]
    for u, v in itertools.combinations(dirs, 2):
        if abs(float(np.dot(u, v))) > 1e-12:
            return None
    return etas[0]


def _check_budget(max_iter: int, tol: float) -> None:
    if not (max_iter >= 0 and tol > 0.0):
        raise ValueError(f"need max_iter >= 0 and tol > 0, got {max_iter} and {tol}")


def decide(a: Assemblage, max_iter: int = 5000, tol: float = 1e-9) -> JMVerdict:
    """Joint-measurability verdict from the cheapest screen that settles it.

    An incompatible pair makes the whole set incompatible, so every unbiased
    pair is first screened with the analytic norm criterion; then an
    orthogonal unbiased triple meets its exact threshold; the rest goes to
    the two-sided feasibility search.  A negative max_iter or a tolerance
    that is not positive raises before any screen runs.
    """
    _check_budget(max_iter, tol)
    for i, j in itertools.combinations(range(len(a)), 2):
        if a[i].is_unbiased and a[j].is_unbiased:
            is_jm, margin = busch_pair_criterion(a[i], a[j])
            if not is_jm:
                return JMVerdict(
                    "not_jm", reason="pair-norm-criterion", pair=(i, j), margin=margin
                )
    eta = _orthogonal_triple_visibility(a)
    if eta is not None and not noisy_pauli_triple_jm(eta):
        return JMVerdict("not_jm", reason="orthogonal-triple-threshold", visibility=eta)
    return jm_feasibility(a, max_iter=max_iter, tol=tol)


def _cone_project(rows: np.ndarray) -> np.ndarray:
    """Project rows (s, vx, vy, vz) onto the PSD (ice-cream) cone |v| <= s."""
    out = rows.copy()
    s = rows[:, 0]
    r = np.linalg.norm(rows[:, 1:], axis=1)
    inside = s >= r
    below = s <= -r
    boundary = ~inside & ~below
    out[below] = 0.0
    if np.any(boundary):
        # strictly -r < s < r here, so r > 0
        t = 0.5 * (s[boundary] + r[boundary])
        out[boundary, 0] = t
        out[boundary, 1:] = rows[boundary, 1:] * (t / r[boundary])[:, None]
    return out


def _cone_violation(rows: np.ndarray) -> float:
    s = rows[:, 0]
    r = np.linalg.norm(rows[:, 1:], axis=1)
    return float(np.max(np.maximum(r - s, 0.0)))


def _response_table(n_settings: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product((0, 1), repeat=n_settings))


def _gap_witness(
    r: np.ndarray, incidence: np.ndarray, a: Assemblage
) -> JMWitness | None:
    """Witness from the affine residual r = A y - T of a Dykstra step, if it verifies.

    The dual rows W = (A A^T)^-1 r give the step's displacement A^T W, one
    block per response function.  Raising z's s by the largest cone violation
    of those blocks (plus a margin for the rounding of this float computation)
    puts every block in the cone and raises the value by the same amount; the
    exact check decides.
    """
    rows = np.linalg.solve(incidence @ incidence.T, r)
    mu = _cone_violation(incidence.T @ rows)
    rows[0, 0] += mu + 2.0**-40 * float(np.abs(rows).sum())
    ops = tuple(QubitOperator(row[0], row[1:]) for row in rows)
    certified, value = _exact_witness_check(ops, a)
    return JMWitness(ops[0], ops[1:], value) if certified else None


def jm_feasibility(
    a: Assemblage, max_iter: int = 5000, tol: float = 1e-9
) -> JMVerdict:
    """Search for a mother POVM reproducing the assemblage, or a witness against one.

    Runs Dykstra's alternating projections between the product of positivity
    cones and the affine subspace {sum_k E_k = I, sum_{k: k(y)=b} E_k = B_b|y}.
    Returns a verified mother on success.  Each affine projection moves the
    cone point y by d = A^T W, with W = (A A^T)^-1 (A y - T) one dual row per
    constraint.  Once <d, x> = <W, T> is negative by more than the cone
    violation of d, W is turned into a JMWitness and checked in exact
    arithmetic; a witness that passes gives not_jm.  Undecided otherwise.
    A negative max_iter or a tolerance that is not positive raises.
    """
    _check_budget(max_iter, tol)
    n = len(a)
    if n == 0:
        raise ValueError("assemblage is empty")
    if n > MAX_SETTINGS:
        raise ValueError(
            f"{n} measurements give 2^{n} mother outcomes; limit is {MAX_SETTINGS}"
        )
    responses = _response_table(n)
    n_out = len(responses)

    # Affine constraints act identically on each Bloch coordinate: row 0 is
    # completeness, row y+1 collects the outcome-0 class of measurement y.
    incidence = np.zeros((n + 1, n_out))
    incidence[0, :] = 1.0
    for k, resp in enumerate(responses):
        for y in range(n):
            if resp[y] == 0:
                incidence[y + 1, k] = 1.0
    pinv = np.linalg.pinv(incidence)

    targets = np.zeros((n + 1, 4))
    targets[0, 0] = 1.0
    for y, m in enumerate(a):
        targets[y + 1, 0] = m.effect0.s
        targets[y + 1, 1:] = m.effect0.v

    x = pinv @ targets
    correction = np.zeros_like(x)
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        y_cone = _cone_project(x + correction)
        correction = x + correction - y_cone
        r = incidence @ y_cone - targets
        d = pinv @ r
        x = y_cone - d
        residual = _cone_violation(x)
        if residual < tol:
            break
        # x lies in the affine set, so <d, x> = <W, T>: the witness value up
        # to the raise that puts every block of d in the cone.
        gap = float(np.vdot(d, x))
        if gap < 0.0 and gap + _cone_violation(d) < 0.0:
            witness = _gap_witness(r, incidence, a)
            if witness is not None:
                return JMVerdict(
                    "not_jm",
                    reason="dykstra-gap-witness",
                    residual=residual,
                    iterations=iterations,
                    witness=witness,
                )

    if residual >= tol:
        return JMVerdict("undecided", residual=residual, iterations=iterations)

    # Final cleanup: make positivity exact; affine constraints then hold to
    # within the residual, which the validity check re-verifies.
    rows = _cone_project(x)
    effects = tuple(QubitOperator(row[0], row[1:]) for row in rows)
    mother = MotherPOVM(effects, responses)
    check_tol = max(10.0 * tol, 1e-8)
    if not mother.is_valid_for(a, check_tol):
        return JMVerdict("undecided", residual=residual, iterations=iterations)
    return JMVerdict("jm", mother=mother, iterations=iterations)
