"""Membership tests for the classical polytopes of PM and Bell scenarios.

Two polytopes appear: the set of prepare-and-measure behaviours p(b|x,y)
reachable with d-valued classical messages plus shared randomness, whose
vertices are deterministic strategies (an encoding f: x -> a and a response
g: (a,y) -> b), and the Bell full-correlator polytope, whose vertices are the
rank-one sign matrices alpha_x beta_y.

Membership is decided by a fully corrective Frank-Wolfe loop driven by exact
enumeration oracles, which share one budget: DEFAULT_ORACLE_BUDGET
candidates per call, checked by _check_budget.  The loop keeps one
persistent corral: the vertices seen so far and an affinely independent
active set whose convex weights Wolfe's minimum-norm-point algorithm
reoptimises exactly.  The factor of the active set's affine system is
updated as vertices enter and leave instead of being rebuilt, so an affine
step costs O(s D + s^2).  An Inside verdict ships with a sparse convex
decomposition and an Outside verdict with a separating witness whose
classical bound comes from one final exact oracle call; every verdict keeps
its final active strategies, from which a run on a nearby point can start.
A dense phase-1 simplex over an explicit vertex list serves as an
independent test oracle for the same question.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .qcore import _Record, frozen

DEFAULT_ORACLE_BUDGET = 10_000_000
DEFAULT_VERTEX_BUDGET = 10_000
_ONE_HOT = np.eye(2)  # row b one-hot encodes the response bit b
_ONE_HOT.setflags(write=False)


class EnumerationBudgetError(ValueError):
    """Raised when an exact oracle would have to enumerate too many objects."""


def _row(strategy) -> np.ndarray:
    """The strategy's vector() flattened and read-only: its polytope vertex."""
    row = strategy.vector().ravel()
    row.setflags(write=False)
    return row


@dataclass(frozen=True)
class PMStrategy(_Record):
    """Deterministic PM strategy: message f[x] in 0..d-1, response g[a][y] in {0,1}."""

    f: tuple[int, ...]
    g: tuple[tuple[int, ...], ...]
    row = functools.cached_property(_row)  # built once per strategy

    def vector(self) -> np.ndarray:
        """Behaviour array v[x, y, b] = 1 when g[f[x]][y] == b."""
        return _ONE_HOT[np.asarray(self.g)[list(self.f)]]


@dataclass(frozen=True)
class SignAssignment(_Record):
    """Deterministic full-correlator vertex C_xy = alpha_x * beta_y."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    row = functools.cached_property(_row)  # built once per strategy

    def vector(self) -> np.ndarray:
        return np.outer(self.alpha, self.beta).astype(float)


@dataclass(frozen=True, eq=False)
class Witness(_Record):
    """Separating hyperplane: coefficients M, classical bound L, achieved Q > L."""

    M: np.ndarray
    L: float
    Q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", frozen(self.M))
        object.__setattr__(self, "L", float(self.L))
        object.__setattr__(self, "Q", float(self.Q))

    @property
    def violation(self) -> float:
        return self.Q - self.L


@dataclass(frozen=True, eq=False)
class MembershipVerdict(_Record):
    """Inside with a convex decomposition, Outside with a witness, or Undecided.

    Inside verdicts carry their weights over the active vertices: strategy
    objects from Frank-Wolfe, raw vertex rows from the simplex.  Undecided
    verdicts carry two-sided bounds on the Euclidean distance from the point
    to the polytope.  A Frank-Wolfe verdict holds its final active strategies
    (weights above 1e-12) in strategies whatever the status, so a run on a
    nearby point can start from them, but the JSON report lists vertices
    only with weights.  Termination, kept out of the report and None for
    simplex verdicts, says why Frank-Wolfe stopped ("converged", dual gap
    within tolerance, "repeated_vertex" or "iteration_cap").
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

    @property
    def is_inside(self) -> bool:
        return self.status == "inside"

    @property
    def is_outside(self) -> bool:
        return self.status == "outside"

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.status, "iterations": self.iterations}
        if self.weights is not None:
            if self.strategies is not None:
                out["vertices"] = [s.to_json_dict() for s in self.strategies]
            elif self.vertices is not None:
                out["vertices"] = self.vertices.tolist()
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


def _check_budget(k: int, n: int, what: str) -> None:
    """Raise EnumerationBudgetError when k^n objects exceed the oracle budget."""
    total = k**n
    if total > DEFAULT_ORACLE_BUDGET:
        raise EnumerationBudgetError(
            f"{k}^{n} = {total} {what} exceed the oracle budget {DEFAULT_ORACLE_BUDGET}"
        )


def _lex_argmax(
    k: int, n: int, score: Callable[[np.ndarray], tuple], what: str
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
    _check_budget(k, n, what)
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


def pm_lmo(M: np.ndarray, d: int) -> tuple[PMStrategy, float]:
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

    f, _, _ = _lex_argmax(d, n_x, score, "encodings")
    flat = M.reshape(n_x, n_y * 2)
    group = np.stack([(f == a).astype(float) @ flat for a in range(d)])
    table = group.reshape(d, n_y, 2)
    g = tuple(map(tuple, table.argmax(axis=2).tolist()))
    return PMStrategy(tuple(f.tolist()), g), float(table.max(axis=2).sum())


def _pm_lmo_over_responses(M: np.ndarray, d: int) -> tuple[PMStrategy, float]:
    """Exact PM maximum by enumerating response tables g, 2^(d n_y) of them.

    For fixed g every x sends its best message.  Ties resolve to the first
    table (outcome 0 before 1) and then to the lowest message.
    """
    n_x, n_y, _ = M.shape
    base = M[:, :, 0].sum(axis=1)
    delta = (M[:, :, 1] - M[:, :, 0]).T  # (n_y, n_x)

    def score(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        per_message = (T[1].reshape(-1, n_y) @ delta).reshape(-1, d, n_x)
        # Rounding is monotone, so adding base after the maximum over
        # messages gives the same bits as adding it before; a loop of
        # pairwise maxima is exact too, and much cheaper than max(axis=1).
        best = per_message[:, 0].copy()
        for a in range(1, d):
            np.maximum(best, per_message[:, a], out=best)
        best += base
        return best.sum(axis=1), per_message

    bits, value, table = _lex_argmax(2, d * n_y, score, "response tables")
    table += base  # as scored, so ties between messages break the same way
    f = tuple(table.argmax(axis=0).tolist())
    g = tuple(map(tuple, bits.reshape(d, n_y).tolist()))
    return PMStrategy(f, g), value


def bell_lmo(M: np.ndarray) -> tuple[SignAssignment, float]:
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

    bits, value, G = _lex_argmax(2, work.shape[0], score, "sign vectors")
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


class _Adapter:
    """Frank-Wolfe's view of a polytope: sizes, point_shape, an LMO taking M
    flat or shaped, and vertex rows.  A subclass adds its exact oracle _exact."""

    def __init__(self, scenario: str, **sizes) -> None:
        """Keep each size as an int attribute; raise ValueError if one is below 1."""
        vars(self).update((name, int(value)) for name, value in sizes.items())
        if min(getattr(self, name) for name in sizes) < 1:
            *head, last = sizes
            got = ", ".join(f"{name}={value}" for name, value in sizes.items())
            raise ValueError(
                f"{scenario} scenario needs {', '.join(head)} and {last} of at least 1; got {got}"
            )

    def lmo(self, M: np.ndarray):
        return self._exact(np.asarray(M, dtype=float).reshape(self.point_shape))

    def vertex(self, strategy):
        return strategy.row


class PMPolytope(_Adapter):
    """LMO adapter for the PM_d behaviour polytope of a fixed scenario shape.

    Internally picks whichever exact enumeration is cheaper for the shape:
    over encodings f (d^n_x candidates, the reference route) or over response
    tables g (2^(d n_y) candidates, each x then picking its best message).
    Both return exact maxima; only tie-breaking among equally good vertices
    differs, and each route is itself deterministic.
    """

    def __init__(self, d: int, n_x: int, n_y: int) -> None:
        super().__init__("PM", d=d, n_x=n_x, n_y=n_y)
        self.point_shape = (self.n_x, self.n_y, 2)
        # Exact in Python ints; the bit-length test comes first, so 2^(d n_y)
        # is only built when it is no larger than d^n_x, whatever d is.
        n_g, cost_f = self.d * self.n_y, self.d**self.n_x
        self._use_g_route = n_g < cost_f.bit_length() and 2**n_g < cost_f
        if self._use_g_route:
            _check_budget(2, n_g, "response tables")
        else:
            _check_budget(self.d, self.n_x, "encodings")

    def _exact(self, M: np.ndarray) -> tuple[PMStrategy, float]:
        if self._use_g_route:
            return _pm_lmo_over_responses(M, self.d)
        return pm_lmo(M, self.d)


class BellPolytope(_Adapter):
    """LMO adapter for the Bell full-correlator polytope."""

    def __init__(self, n_a: int, n_b: int) -> None:
        super().__init__("Bell", n_a=n_a, n_b=n_b)
        self.point_shape = (self.n_a, self.n_b)

    def _exact(self, M: np.ndarray) -> tuple[SignAssignment, float]:
        return bell_lmo(M)


# ---------------------------------------------------------------------------
# Fully corrective Frank-Wolfe membership
# ---------------------------------------------------------------------------

# A row enters the support when its squared distance from the support's
# affine hull, lifted as (1, row - p), exceeds this share of its own squared
# lifted norm; below it, the row is an affine combination of the support.
_DEPENDENT = 1e-10


class _Corral:
    """Wolfe's minimum-norm-point state over a growing vertex buffer.

    V holds every row seen.  The support S, the rows of positive weight,
    sits contiguously in X, minus p in R, with its weights in W; x = W @ X
    is the current point.  F^T F = A_S^-1 for A_S = 1 1^T + R R^T, which is
    invertible exactly while S is affinely independent, and the affine
    minimiser over aff(S) is proportional to F^T F 1.  An entering row
    borders F with one row and a leaving one is reflected out of it, so a
    step costs O(s D + s^2), is stable, and re-solves nothing.
    """

    def __init__(self, p: np.ndarray, rows: np.ndarray, w: np.ndarray) -> None:
        """The corral whose support is the rows of positive weight.

        An affinely independent support is factored in one go; otherwise its
        rows enter one by one, and null steps reduce it.  Such a support has
        at most D + 1 rows, so X, R, W and F are allocated once at that size.
        """
        n, dim = rows.shape
        self.p, self.k, self.V = p, n, np.empty((max(2 * n, 8), dim))
        self.V[:n] = rows
        self.X, self.R = np.empty((2, dim + 1, dim))
        self.W, self.F = np.empty(dim + 1), np.empty((dim + 1, dim + 1))
        support = np.flatnonzero(w > 0.0)
        weights = w[support] / w[support].sum()
        self.s, self.support = len(support), support.tolist()
        R = rows[support] - p
        if 1 < self.s <= dim + 1 and self.factor(R):
            self.X[: self.s], self.R[: self.s], self.W[: self.s] = rows[support], R, weights
        else:
            self.s, self.support = 0, []
            for i, weight in zip(support, weights):
                self.enter(int(i), float(weight))
        self.x = self.W[: self.s] @ self.X[: self.s]

    def factor(self, R: np.ndarray) -> bool:
        """F = L^-1 for 1 1^T + R R^T = L L^T; False when R's rows are dependent.

        The squared pivots of L are the squared distances border tests.
        """
        A = R @ R.T + 1.0
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            return False
        if np.any(L.diagonal() ** 2 <= _DEPENDENT * A.diagonal()):
            return False
        self.F[: len(R), : len(R)] = np.linalg.inv(L)
        return True

    def add(self, row: np.ndarray) -> None:
        """Append a row to the buffer, outside the support."""
        if self.k == len(self.V):
            self.V = np.vstack((self.V, np.empty_like(self.V)))
        self.V[self.k] = row
        self.k += 1

    def weights(self) -> np.ndarray:
        """Weights of every buffered row, zero off the support."""
        w = np.zeros(self.k)
        w[self.support] = self.W[: self.s]
        return w

    def affine(self) -> np.ndarray:
        """Affine minimiser weights on S, refined once against A_S.

        A_S can be ill-conditioned (cond 7.7e8 on the 16-setting snub point);
        there the refined weights are within 1e-14 of a 50-digit solve, the
        factor alone 5e-10 and a float64 solve of the formed A_S 2e-9.
        """
        F, R = self.F[: self.s, : self.s], self.R[: self.s]
        u = (F @ np.ones(self.s)) @ F
        u += (F @ (1.0 - u.sum() - R @ (u @ R))) @ F
        return u / u.sum()

    def border(self, i: int) -> np.ndarray | None:
        """Bring buffered row i into the support at weight 0 and border F.

        When the row is an affine combination q @ (rows of S), as every row
        is once S has D + 1 rows, returns q and leaves the support as it was.
        """
        s = self.s
        r = self.V[i] - self.p
        b = self.R[:s] @ r
        b += 1.0
        q = (self.F[:s, :s] @ b) @ self.F[:s, :s]  # A_S^-1 b
        # The squared distance of (1, r) from the rows (1, R_j), from its
        # residual: unlike the Schur complement 1 + r @ r - b @ q it cannot
        # lose its digits to cancellation or turn negative.
        left = r - q @ self.R[:s]
        schur = (1.0 - q.sum()) ** 2 + float(left @ left)
        if schur <= _DEPENDENT * (1.0 + float(r @ r)) or s == len(self.W):
            return q
        root = np.sqrt(schur)
        np.divide(q, -root, out=self.F[s, :s])
        self.F[:s, s] = 0.0
        self.F[s, s] = 1.0 / root
        self.X[s], self.R[s], self.W[s] = self.V[i], r, 0.0
        self.s += 1
        self.support.append(i)
        return None

    def drop(self, j: int) -> None:
        """Remove support position j.

        The reflection I - v v^T / |v_last| maps column j of F onto the last
        axis, so F without that column and its last row factors the rest.
        """
        s = self.s
        F = self.F[:s, :s]
        v = F[:, j] / np.linalg.norm(F[:, j])
        v[-1] += 1.0 if v[-1] >= 0.0 else -1.0
        F -= v[:, None] * ((v @ F) / abs(v[-1]))
        F[:, j : s - 1] = F[:, j + 1 : s]
        for a in (self.X, self.R, self.W):
            a[j : s - 1] = a[j + 1 : s]
        self.s -= 1
        del self.support[j]

    def enter(self, i: int, weight: float = 0.0) -> None:
        """Bring row i into the support, by null steps while it is dependent.

        When row i = q @ (rows of S), moving the weights along (q, -1) keeps
        x and sum(w): row i gains t, the rows with q_j > 0 shrink, and the
        first to reach zero leaves, after which row i is independent of S.
        """
        while (q := self.border(i)) is not None:
            w = self.W[: self.s]
            shrinking = q > 1e-12
            ratios = np.full(len(q), np.inf)
            ratios[shrinking] = w[shrinking] / q[shrinking]
            j = int(ratios.argmin())
            t = float(ratios[j])
            np.maximum(w - t * q, 0.0, out=w)
            weight += t
            self.drop(j)
        self.W[self.s - 1] = weight

    def project(self) -> None:
        """Wolfe's loop from the current weights until no buffered row improves.

        At the start and after each full affine step every buffered row is
        rescanned and the most improving one enters, so a dropped row can
        come back.  An affine minimiser outside the simplex is approached
        until the first weight reaches zero, and that row leaves.
        """
        stall = 0
        obj_prev = np.inf
        rescan = True
        for _ in range(64 * (self.k + 2)):
            if rescan:
                g = self.x - self.p
                obj = float(g @ g)
                base = float(self.x @ g)
                scores = self.V[: self.k] @ g
                i_star = int(scores.argmin())
                if float(scores[i_star]) >= base - 1e-13 * (1.0 + abs(base)):
                    return
                if obj >= obj_prev - 1e-15 * (1.0 + obj_prev):
                    stall += 1
                    if stall >= 3:
                        return
                else:
                    stall = 0
                obj_prev = obj
                if i_star not in self.support:
                    self.enter(i_star)
            u = self.affine()
            w = self.W[: self.s]
            lowest = float(u.min())
            rescan = lowest >= -1e-12
            if lowest > 0.0:
                w[:] = u
            else:
                if rescan:
                    np.maximum(u, 0.0, out=w)
                else:
                    # Some u_i < -1e-12 while w >= 0, so the step shrinks and
                    # theta is in [0, 1); both sum to 1, so a weight stays positive.
                    step = u - w
                    shrinking = step < -1e-15
                    w += float((w[shrinking] / -step[shrinking]).min()) * step
                    w[w < 1e-14] = 0.0
                for j in np.flatnonzero(w == 0.0)[::-1]:
                    self.drop(int(j))
                w = self.W[: self.s]
                w /= w.sum()
            self.x = w @ self.X[: self.s]


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

    Runs the corral's Wolfe loop (_Corral.project) from the given weights:
    repeatedly add the row most aligned with the residual, take Wolfe's
    affine step on the support, and step back to the simplex, dropping rows
    that hit zero, until no row improves.  A row that is an affine
    combination of the support enters by a null step (see _Corral.enter), so
    the support stays affinely independent.
    """
    corral = _Corral(p, rows, w)
    corral.project()
    return corral.weights(), corral.x


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
    verdict's strategies) warm-starts the run: they replace the oracle's
    vertex for the point as the first vertex set, which saves that call.
    The corral begins with uniform weights over them, factored in one go
    (null steps reduce a dependent set as its rows enter one by one).
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
    corral = _Corral(p, rows, np.ones(len(rows)))
    best = None  # oracle value at the residual p - x, once an iteration has one
    iterations = 0
    termination = "iteration_cap"
    for iterations in range(1, max_iter + 1):
        corral.project()
        g = p - corral.x
        strat, best = polytope.lmo(g)
        if best - float(g @ corral.x) <= gap_tol:
            termination = "converged"
            break
        if strat in seen:
            termination = "repeated_vertex"
            break
        strategies.append(strat)
        corral.add(polytope.vertex(strat))
        seen.add(strat)

    direction = p - corral.x
    dist = float(np.linalg.norm(direction))
    w = corral.weights()
    keep = w > 1e-12
    kept_strategies = tuple(s for s, flag in zip(strategies, keep) if flag)
    kept_weights = w[keep]
    kept_weights = kept_weights / kept_weights.sum()
    verdict = functools.partial(
        MembershipVerdict,
        strategies=kept_strategies,
        iterations=iterations,
        termination=termination,
    )

    if dist < eps_in:
        return verdict(
            "inside",
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
    point: np.ndarray, vertices: Sequence[np.ndarray] | np.ndarray
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
    if n > DEFAULT_VERTEX_BUDGET:
        raise EnumerationBudgetError(
            f"{n} vertices exceed the budget {DEFAULT_VERTEX_BUDGET}"
        )
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
