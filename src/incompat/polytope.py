"""Membership tests for the classical polytopes of PM and Bell scenarios.

Two polytopes appear: the set of prepare-and-measure behaviours p(b|x,y)
reachable with d-valued classical messages plus shared randomness, whose
vertices are deterministic strategies (an encoding f: x -> a and a response
g: (a,y) -> b), and the Bell full-correlator polytope, whose vertices are the
rank-one sign matrices alpha_x beta_y.

Membership is decided by a fully corrective Frank-Wolfe loop driven by exact
enumeration oracles.  The loop maintains an explicit active vertex set and
reoptimises the convex weights exactly with Wolfe's minimum-norm-point
algorithm, whose affine step is one symmetric positive definite solve, so
an Inside verdict always ships with a sparse convex decomposition and an
Outside verdict with a separating witness whose classical bound comes from one
final exact oracle call.  A dense phase-1 simplex over an explicit vertex list
serves as an independent test oracle for the same question.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

DEFAULT_ORACLE_BUDGET = 10_000_000
DEFAULT_VERTEX_BUDGET = 10_000
_ONE_HOT = np.eye(2)  # row b one-hot encodes the response bit b
_ONE_HOT.setflags(write=False)


class EnumerationBudgetError(ValueError):
    """Raised when an exact oracle would have to enumerate too many objects."""


@dataclass(frozen=True)
class PMStrategy:
    """Deterministic PM strategy: message f[x] in 0..d-1, response g[a][y] in {0,1}."""

    f: tuple[int, ...]
    g: tuple[tuple[int, ...], ...]

    def vector(self) -> np.ndarray:
        """Behaviour array v[x, y, b] = 1 when g[f[x]][y] == b."""
        return _ONE_HOT[np.asarray(self.g)[list(self.f)]]

    def to_json_dict(self) -> dict:
        return {"f": list(self.f), "g": [list(row) for row in self.g]}


@dataclass(frozen=True)
class SignAssignment:
    """Deterministic full-correlator vertex C_xy = alpha_x * beta_y."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def vector(self) -> np.ndarray:
        return np.outer(self.alpha, self.beta).astype(float)

    def to_json_dict(self) -> dict:
        return {"alpha": list(self.alpha), "beta": list(self.beta)}


@dataclass(frozen=True)
class Witness:
    """Separating hyperplane: coefficients M, classical bound L, achieved Q > L."""

    M: np.ndarray
    L: float
    Q: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.M, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "M", arr)
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "Q", float(self.Q))

    @property
    def violation(self) -> float:
        return self.Q - self.L

    def to_json_dict(self) -> dict:
        return {
            "M": self.M.tolist(),
            "L": self.L,
            "Q": self.Q,
        }


@dataclass(frozen=True)
class MembershipVerdict:
    """Inside with a convex decomposition, Outside with a witness, or Undecided.

    Inside verdicts carry the active vertices (strategy objects where the
    oracle produced them, otherwise raw vertex rows) and their weights;
    Undecided verdicts carry two-sided bounds on the Euclidean distance from
    the point to the polytope.  Kept out of the JSON report and None for
    simplex verdicts: termination says why Frank-Wolfe stopped ("converged",
    dual gap within tolerance, "repeated_vertex" or "iteration_cap"), and
    active holds its final active strategies (weights above 1e-12) whatever
    the status, to warm-start a run on a nearby point.
    """

    status: str
    strategies: tuple | None = None
    vertices: np.ndarray | None = None
    weights: np.ndarray | None = None
    reconstruction_error: float | None = None
    witness: Witness | None = None
    distance_lower: float | None = None
    distance_upper: float | None = None
    iterations: int = 0
    termination: str | None = None
    active: tuple | None = None

    @property
    def is_inside(self) -> bool:
        return self.status == "inside"

    @property
    def is_outside(self) -> bool:
        return self.status == "outside"

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.status, "iterations": self.iterations}
        if self.strategies is not None:
            out["vertices"] = [s.to_json_dict() for s in self.strategies]
        elif self.vertices is not None:
            out["vertices"] = self.vertices.tolist()
        if self.weights is not None:
            out["weights"] = [float(w) for w in self.weights]
        if self.reconstruction_error is not None:
            out["reconstruction_error"] = self.reconstruction_error
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.distance_lower is not None:
            out["distance_bounds"] = [self.distance_lower, self.distance_upper]
        return out


# ---------------------------------------------------------------------------
# Exact linear maximisation oracles
# ---------------------------------------------------------------------------


# One-hot entries per column of a chunk: a chunk over k values has at most
# _CHUNK_SIZE // k rows.  This constant fixes the exact oracles' memory.
_CHUNK_SIZE = 1 << 16


@functools.lru_cache(maxsize=8)
def _lex_onehot(k: int, m: int) -> np.ndarray:
    """{0..k-1}^m in lexicographic order as a read-only one-hot float64 table.

    Entry [a, i, j] is 1.0 when row i has digit a at position j.  Callers keep
    k^(m+1) <= _CHUNK_SIZE, so a table is at most 8 MB and the cache 63 MB.
    """
    digits = np.empty((k**m, m), dtype=np.intp)
    idx = np.arange(k**m)
    for j in range(m - 1, -1, -1):
        idx, digits[:, j] = np.divmod(idx, k)
    table = (digits == np.arange(k)[:, None, None]).astype(float)
    table.setflags(write=False)
    return table


def _lex_argmax(
    k: int, n: int, score: Callable[[np.ndarray], tuple], budget: int, what: str
) -> tuple[np.ndarray, float, np.ndarray]:
    """First lexicographic maximiser of a per-row score over {0..k-1}^n.

    Chunks of k^m <= _CHUNK_SIZE / k rows are walked in order, each one
    prefix of the n - m high digits over the cached table of all low digits;
    one buffer per call holds the chunk and only its prefix columns change.
    score(T) gets a chunk as a one-hot (k, rows, n) table, which it must not
    write or keep, and returns one value per row plus a per-row array the
    caller decodes the winner from.
    Returns the winning digits, value and that array's row; ties go to the
    first row.  A call holds one chunk and what score builds from it, so for
    k <= _CHUNK_SIZE its memory is a small multiple of _CHUNK_SIZE times the
    widest per-row array, whatever k^n is.
    """
    total = k**n
    if total > budget:
        raise EnumerationBudgetError(
            f"{k}^{n} = {total} {what} exceed the oracle budget {budget}"
        )
    m = next((j for j in range(n, -1, -1) if k ** (j + 1) <= _CHUNK_SIZE), 0)
    low = _lex_onehot(k, m)
    T = low
    if m < n:
        T = np.empty((k, low.shape[1], n))
        T[:, :, n - m :] = low
    best = None
    for prefix in itertools.product(range(k), repeat=n - m):
        if prefix:
            T[:, :, : n - m] = (np.arange(k)[:, None] == prefix)[:, None, :]
        values, details = score(T)
        i = int(np.argmax(values))
        if best is None or values[i] > best[1]:
            best = (T[:, i, :].argmax(axis=0), float(values[i]), details[i].copy())
    return best


def pm_lmo(
    M: np.ndarray, d: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[PMStrategy, float]:
    """Exact maximum of sum_xy M[x, y, g(f(x), y)] over deterministic strategies.

    Enumerates every encoding f in lexicographic order; for fixed f the best
    response picks, per message value and setting, the outcome with the larger
    group sum.  Ties resolve to the lowest message, lowest outcome, and first
    (lexicographically smallest) encoding, so runs are reproducible.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[2] != 2:
        raise ValueError(f"coefficient array must have shape (n_x, n_y, 2), got {M.shape}")
    n_x, n_y, _ = M.shape
    if d < 1:
        raise ValueError("message dimension must be positive")
    # max_b(S_0, S_1) = S_0 + relu(S_1 - S_0), and the S_0 parts summed over
    # all messages telescope to sum(M[:, :, 0]) independently of f, so only
    # the groupwise sums of the outcome difference are needed per encoding.
    diff = M[:, :, 1] - M[:, :, 0]
    const = float(M[:, :, 0].sum())

    def score(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One product for all messages; their row sums are then added to
        # const one message at a time, in message order.
        D = T @ diff
        np.maximum(D, 0.0, out=D)
        vals = D.sum(axis=2).sum(axis=0, initial=const)
        return vals, vals  # the encoding alone decodes the winner

    f, _, _ = _lex_argmax(d, n_x, score, budget, "encodings")
    flat = M.reshape(n_x, n_y * 2)
    group = np.stack([(f == a).astype(float) @ flat for a in range(d)])
    table = group.reshape(d, n_y, 2)
    g = tuple(map(tuple, table.argmax(axis=2).tolist()))
    return PMStrategy(tuple(f.tolist()), g), float(table.max(axis=2).sum())


def _pm_lmo_over_responses(
    M: np.ndarray, d: int, budget: int
) -> tuple[PMStrategy, float]:
    """Exact PM maximum by enumerating response tables g, 2^(d n_y) of them.

    For fixed g every x sends its best message.  Ties resolve to the first
    table (outcome 0 before 1) and then to the lowest message.
    """
    n_x, n_y, _ = M.shape
    base = M[:, :, 0].sum(axis=1)
    delta = (M[:, :, 1] - M[:, :, 0]).T  # (n_y, n_x)

    def score(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        per_message = (T[1].reshape(-1, n_y) @ delta).reshape(-1, d, n_x)
        per_message += base
        return per_message.max(axis=1).sum(axis=1), per_message

    bits, value, table = _lex_argmax(2, d * n_y, score, budget, "response tables")
    f = tuple(table.argmax(axis=0).tolist())
    g = tuple(map(tuple, bits.reshape(d, n_y).tolist()))
    return PMStrategy(f, g), value


def bell_lmo(
    M: np.ndarray, budget: int = DEFAULT_ORACLE_BUDGET
) -> tuple[SignAssignment, float]:
    """Exact maximum of sum_xy M_xy alpha_x beta_y over sign assignments.

    Enumerates the smaller side, +1 before -1; the other side follows as the
    sign of the accumulated column (ties to +1).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"coefficient matrix must be 2-d, got shape {M.shape}")
    n_a, n_b = M.shape
    swap = n_b < n_a
    work = M.T if swap else M

    def score(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        G = (T[0] - T[1]) @ work
        return np.abs(G).sum(axis=1), G

    bits, value, G = _lex_argmax(2, work.shape[0], score, budget, "sign vectors")
    lead = tuple(1 - 2 * int(b) for b in bits)
    follow = tuple(1 if gv >= 0.0 else -1 for gv in G)
    alpha, beta = (follow, lead) if swap else (lead, follow)
    return SignAssignment(alpha, beta), value


def enumerate_pm_strategies(d: int, n_x: int, n_y: int) -> Iterator[PMStrategy]:
    """All deterministic PM strategies; exponential, for small test instances only."""
    responses = list(itertools.product((0, 1), repeat=n_y))
    for f in itertools.product(range(d), repeat=n_x):
        for g in itertools.product(responses, repeat=d):
            yield PMStrategy(f, g)


def enumerate_sign_assignments(n_a: int, n_b: int) -> Iterator[SignAssignment]:
    for alpha in itertools.product((1, -1), repeat=n_a):
        for beta in itertools.product((1, -1), repeat=n_b):
            yield SignAssignment(alpha, beta)


# ---------------------------------------------------------------------------
# Oracle adapters used by the Frank-Wolfe loop
# ---------------------------------------------------------------------------


class PMPolytope:
    """LMO adapter for the PM_d behaviour polytope of a fixed scenario shape.

    Internally picks whichever exact enumeration is cheaper for the shape:
    over encodings f (d^n_x candidates, the reference route) or over response
    tables g (2^(d n_y) candidates, each x then picking its best message).
    Both return exact maxima; only tie-breaking among equally good vertices
    differs, and each route is itself deterministic.
    """

    def __init__(self, d: int, n_x: int, n_y: int) -> None:
        self.d = int(d)
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        cost_f = self.d**self.n_x
        cost_g = 2 ** (self.d * self.n_y) if self.d * self.n_y < 60 else float("inf")
        if min(cost_f, cost_g) > DEFAULT_ORACLE_BUDGET:
            raise EnumerationBudgetError(
                f"PM oracle for d={d}, n_x={n_x}, n_y={n_y} exceeds budget "
                f"{DEFAULT_ORACLE_BUDGET}"
            )
        self._use_g_route = cost_g < cost_f

    @property
    def point_shape(self) -> tuple[int, ...]:
        return (self.n_x, self.n_y, 2)

    def lmo(self, M: np.ndarray) -> tuple[PMStrategy, float]:
        M = np.asarray(M, dtype=float).reshape(self.point_shape)
        if self._use_g_route:
            return _pm_lmo_over_responses(M, self.d, DEFAULT_ORACLE_BUDGET)
        return pm_lmo(M, self.d)

    def vertex(self, strategy: PMStrategy) -> np.ndarray:
        return strategy.vector().ravel()


class BellPolytope:
    """LMO adapter for the Bell full-correlator polytope."""

    def __init__(self, n_a: int, n_b: int) -> None:
        self.n_a = int(n_a)
        self.n_b = int(n_b)

    @property
    def point_shape(self) -> tuple[int, ...]:
        return (self.n_a, self.n_b)

    def lmo(self, M: np.ndarray) -> tuple[SignAssignment, float]:
        M = np.asarray(M, dtype=float).reshape(self.point_shape)
        return bell_lmo(M)

    def vertex(self, strategy: SignAssignment) -> np.ndarray:
        return strategy.vector().ravel()


# ---------------------------------------------------------------------------
# Fully corrective Frank-Wolfe membership
# ---------------------------------------------------------------------------


def _affine_weights(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Minimiser of |w @ rows - p| over sum(w) = 1 (signs unconstrained).

    Wolfe's affine step: with R = rows - p the minimiser is u / sum(u) for the
    solution u of (1 1^T + R R^T) u = 1.  The matrix is positive definite
    exactly when the rows are affinely independent; a singular one raises
    np.linalg.LinAlgError.
    """
    R = rows - p
    u = np.linalg.solve(R @ R.T + 1.0, np.ones(rows.shape[0]))
    return u / u.sum()


def _min_norm_point(
    rows: np.ndarray, p: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact projection of p onto the convex hull of the given rows.

    Wolfe's minimum-norm-point iteration: repeatedly add the row most aligned
    with the residual, take Wolfe's affine step on the support (one symmetric
    solve, see _affine_weights), and step back to the simplex, dropping rows
    that hit zero.  Terminates when no row improves.  When the support is
    affinely dependent, the weights move along a null combination of the
    support (coefficients summing to zero whose rows sum to zero), which
    leaves the point unchanged, until one weight reaches zero; that row is
    dropped and the step is retried.
    """
    k = rows.shape[0]
    w = w.copy()
    stall = 0
    obj_prev = np.inf
    for _ in range(64 * (k + 2)):
        x = w @ rows
        g = x - p
        obj = float(g @ g)
        scores = rows @ g
        base = float(x @ g)
        i_star = int(scores.argmin())
        if float(scores[i_star]) >= base - 1e-13 * (1.0 + abs(base)):
            break
        if obj >= obj_prev - 1e-15 * (1.0 + obj_prev):
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
        obj_prev = obj
        support = np.flatnonzero(w > 0.0).tolist()
        if i_star not in support:
            support.append(i_star)
        w_s = w[support]
        total = w_s.sum()
        w_s = w_s / total if total > 0 else np.full(len(support), 1.0 / len(support))
        for _ in range(len(support) + 8):
            try:
                u = _affine_weights(rows[support], p)
            except np.linalg.LinAlgError:
                A = np.vstack([rows[support].T, np.ones(len(support))])
                lam = np.linalg.svd(A)[2][-1]
                shrinking = lam > 1e-12  # lam has unit norm
                ratios = np.full(len(support), np.inf)
                ratios[shrinking] = w_s[shrinking] / lam[shrinking]
                j = int(ratios.argmin())
                w_s = w_s - ratios[j] * lam
                del support[j]
                w_s = np.maximum(np.delete(w_s, j), 0.0)
                continue
            if float(u.min()) >= -1e-12:
                w_s = np.maximum(u, 0.0)
                break
            # Step from w_s towards u until the first weight reaches zero.
            # Some u_i < -1e-12 while w_s >= 0, so that step shrinks and theta
            # is in [0, 1); both w_s and u sum to 1, so a weight stays positive.
            step = u - w_s
            shrinking = step < -1e-15
            theta = float((w_s[shrinking] / -step[shrinking]).min())
            w_s = w_s + theta * step
            w_s[w_s < 1e-14] = 0.0
            keep = w_s > 0.0
            support = [s for s, flag in zip(support, keep) if flag]
            w_s = w_s[keep]
        w = np.zeros(k)
        w[support] = w_s
        total = w.sum()
        w = w / total if total > 0 else w
    return w, w @ rows


def fw_membership(
    point: np.ndarray,
    polytope,
    eps_in: float = 1e-7,
    eps_out: float = 1e-7,
    max_iter: int = 2000,
    start: Sequence = (),
) -> MembershipVerdict:
    """Classify a point against the polytope served by the given oracle.

    Minimises the squared Euclidean distance to the vertex hull with a fully
    corrective Frank-Wolfe loop.  Inside when the final distance is below
    eps_in (the active set is the decomposition); Outside when the residual
    direction M = point - projection certifies Q - L > eps_out, with L from a
    final exact oracle call and the emitted witness rescaled to unit maximum
    coefficient; Undecided otherwise, with bracketing distance bounds.  The
    decision reuses the oracle value the last iteration computed for the
    residual, so an Outside run makes iterations + 2 exact oracle calls.
    eps_in must be positive, eps_out and max_iter nonnegative.

    A non-empty start (strategies of the same polytope, such as a previous
    verdict's active set) warm-starts the run: they replace the oracle's
    vertex for the point as the first vertex set, which saves that call.
    The weights begin uniform over them, so the first projection takes one
    affine step on the whole set (null steps reduce a dependent one).
    """
    if not (eps_in > 0.0 and eps_out >= 0.0 and max_iter >= 0):
        bad = f"{eps_in}, {eps_out}, {max_iter}"
        raise ValueError(f"need eps_in > 0, eps_out >= 0, max_iter >= 0; got {bad}")
    p = np.asarray(point, dtype=float).ravel()
    expected = int(np.prod(polytope.point_shape))
    if p.size != expected:
        raise ValueError(
            f"point has {p.size} entries but the oracle expects {expected}"
        )
    gap_tol = 1e-12 * max(1.0, float(p @ p))

    strategies = list(start) or [polytope.lmo(p)[0]]
    rows = np.array([polytope.vertex(s) for s in strategies])
    if rows.shape[1] != expected:
        raise ValueError(f"start strategies must have vertices of {expected} entries")
    seen = set(strategies)
    w = np.full(len(rows), 1.0 / len(rows))
    x = w @ rows
    best = None  # oracle value at the residual p - x, once an iteration has one
    iterations = 0
    termination = "iteration_cap"
    for iterations in range(1, max_iter + 1):
        w, x = _min_norm_point(rows, p, w)
        g = p - x
        strat, best = polytope.lmo(g)
        if best - float(g @ x) <= gap_tol:
            termination = "converged"
            break
        if strat in seen:
            termination = "repeated_vertex"
            break
        strategies.append(strat)
        rows = np.vstack((rows, polytope.vertex(strat)))
        seen.add(strat)
        w = np.append(w, 0.0)

    direction = p - x
    dist = float(np.linalg.norm(direction))
    keep = w > 1e-12
    kept_strategies = tuple(s for s, flag in zip(strategies, keep) if flag)
    kept_weights = w[keep]
    kept_weights = kept_weights / kept_weights.sum()
    verdict = functools.partial(
        MembershipVerdict,
        iterations=iterations,
        termination=termination,
        active=kept_strategies,
    )

    if dist < eps_in:
        return verdict(
            "inside",
            strategies=kept_strategies,
            weights=kept_weights,
            reconstruction_error=dist,
        )

    if best is None:
        _, best = polytope.lmo(direction)
    achieved = float(direction @ p)
    if achieved - best > eps_out:
        scale = float(np.max(np.abs(direction)))
        M = (direction / scale).reshape(polytope.point_shape)
        _, L = polytope.lmo(M)
        Q = float(M.ravel() @ p)
        if Q > L:
            return verdict(
                "outside",
                witness=Witness(M, L, Q),
                distance_lower=(achieved - best) / dist,
                distance_upper=dist,
            )

    lower = max(0.0, achieved - best) / dist
    return verdict("undecided", distance_lower=lower, distance_upper=dist)


# ---------------------------------------------------------------------------
# Independent oracle: dense phase-1 simplex over an explicit vertex list
# ---------------------------------------------------------------------------


def _phase1_simplex(A: np.ndarray, b: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
    """Solve min sum(artificials) s.t. A x + artificials = b, x >= 0.

    Returns (feasible, x, y): feasible when the phase-1 optimum is at most
    1e-9, and y is the dual vector of that optimum; on infeasibility y
    separates: y @ A <= 0 componentwise while y @ b > 0.  Uses Bland's rule,
    so it cannot cycle.
    """
    m, n = A.shape
    A = A.copy()
    b = b.copy()
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    tableau = np.zeros((m, n + m + 1))
    tableau[:, :n] = A
    tableau[:, n : n + m] = np.eye(m)
    tableau[:, -1] = b
    basis = list(range(n, n + m))
    cost = np.zeros(n + m)
    cost[n:] = 1.0

    pivot_tol = 1e-11
    for _ in range(50 * (n + m) + 200):
        y_basis = cost[basis] @ tableau[:, : n + m]
        reduced = cost - y_basis
        entering = -1
        for j in range(n + m):
            if reduced[j] < -pivot_tol and j not in basis:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:, entering]
        ratios = np.full(m, np.inf)
        positive = col > pivot_tol
        ratios[positive] = tableau[positive, -1] / col[positive]
        best = np.inf
        leaving = -1
        for i in range(m):
            if not np.isfinite(ratios[i]):
                continue
            if ratios[i] < best - 1e-15:
                best = ratios[i]
                leaving = i
            elif ratios[i] <= best + 1e-15 and leaving >= 0 and basis[i] < basis[leaving]:
                leaving = i
        if leaving < 0:
            raise RuntimeError("phase-1 simplex found an unbounded column")
        piv = tableau[leaving, entering]
        tableau[leaving] /= piv
        for i in range(m):
            if i != leaving and abs(tableau[i, entering]) > 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        basis[leaving] = entering
    else:
        raise RuntimeError("phase-1 simplex exceeded its pivot budget")

    objective = float(cost[basis] @ tableau[:, -1])
    x = np.zeros(n)
    for i, j in enumerate(basis):
        if j < n:
            x[j] = tableau[i, -1]

    # Dual from the reduced costs of the artificial columns; undo sign flips.
    y_basis = cost[basis] @ tableau[:, : n + m]
    reduced = cost - y_basis
    y = 1.0 - reduced[n:]
    y[flip] *= -1.0
    return objective <= 1e-9, x, y


def brute_force_membership(
    point: np.ndarray,
    vertices: Sequence[np.ndarray] | np.ndarray,
    budget: int = DEFAULT_VERTEX_BUDGET,
) -> MembershipVerdict:
    """Exact hull membership against an explicit vertex list.

    Phase-1 simplex feasibility of {V w = point, w >= 0, sum w = 1}.  Inside
    returns the basic weights; Outside returns the dual separating certificate
    as a Witness (rescaled to unit maximum coefficient, with the classical
    bound recomputed directly over the vertex list).
    """
    V = np.asarray(
        [np.asarray(v, dtype=float).ravel() for v in vertices], dtype=float
    )
    p = np.asarray(point, dtype=float).ravel()
    n, dim = V.shape
    if n > budget:
        raise EnumerationBudgetError(f"{n} vertices exceed the budget {budget}")
    if p.size != dim:
        raise ValueError("point dimension does not match vertex dimension")

    A = np.vstack([V.T, np.ones((1, n))])
    b = np.append(p, 1.0)
    feasible, w, y = _phase1_simplex(A, b)
    if feasible:
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        support = w > 1e-12
        w = w[support] / w[support].sum()
        used = V[support]
        err = float(np.linalg.norm(w @ used - p))
        return MembershipVerdict(
            "inside",
            vertices=used,
            weights=w,
            reconstruction_error=err,
            iterations=1,
        )

    direction = y[:dim]
    scale = float(np.max(np.abs(direction)))
    if scale == 0.0:
        raise RuntimeError("phase-1 simplex returned a null separating direction")
    M = direction / scale
    L = float(np.max(V @ M))
    Q = float(M @ p)
    if Q <= L:
        raise RuntimeError("phase-1 dual certificate failed re-verification")
    return MembershipVerdict(
        "outside",
        witness=Witness(M.reshape(np.asarray(point).shape), L, Q),
        iterations=1,
    )
