"""The four seeded workloads: inputs, decisions and the evidence check of each.

A workload is a fixed batch of decisions built from the seed.  A decision is
one call sequence that returns a verdict; ``run`` makes the calls and
``check`` re-verifies what came back, independently of the solver.  Inputs
are built so that the right verdict is known in advance, and a decision that
returns another verdict fails, so giving up early ("undecided") cannot pass
as a speed-up.  Decisions build fresh oracle objects, so running a batch
again repeats the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks


@dataclass
class Decision:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]  # (verdict, problem)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (incompat, rng, workdir) -> list[Decision]
    min_batches: int = 1  # untraced batches a run makes even past its time budget


PAULI_DIRS = np.array(
    [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]]
)


def unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation matrix from a random unit quaternion."""
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def effect_rows(a) -> np.ndarray:
    """(s, vx, vy, vz) of each measurement's first effect."""
    return np.array([[m.effect0.s, *m.effect0.v] for m in a])


def _membership_check(point, vertex, lmo, expected: str):
    def check(verdict) -> tuple[str, str | None]:
        problem = checks.check_membership(verdict, point, vertex, lmo)
        if problem is None and verdict.status != expected:
            problem = f"expected {expected}, got {verdict.status}"
        return verdict.status, problem

    return check


# ---------------------------------------------------------------------------
# snub_inside: part of criterion 8's computation, in a seeded frame
# ---------------------------------------------------------------------------

SNUB_MAX_ITER = 4000
# 16 of the 24 directions: about 160 iterations and 97 vertices per decision,
# against 236 and 145 for all 24.  At about 1 s instead of 3 s, a run repeats
# each decision ten times or more, so its fastest repeat holds still.
SNUB_SETTINGS = 16


def build_snub_inside(ic, rng, workdir) -> list[Decision]:
    """Six Pauli eigenstates x 16 snub-cube measurements at d = 3, both chiralities.

    Criterion 8 puts the behaviour with all 24 measurements inside the
    three-message polytope; dropping measurements keeps a classical model
    classical, so these are inside too.  The seed applies one of the 48
    symmetries of the cube (a signed permutation of the axes) to states and
    measurements together.  That is exact in floating point and only
    relabels the states, so every seed does the same 318 iterations; a
    general rotation or a reordering of the measurements moves the count by
    a few per cent through rounding and tie-breaking.
    """
    R = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
    state_dirs = PAULI_DIRS @ R.T
    e = ic.Ensemble(tuple(ic.QubitState.pure(r) for r in state_dirs))
    decisions = []
    for mirror in (False, True):
        dirs = ic.snub_cube_directions(mirror=mirror)[:SNUB_SETTINGS] @ R.T
        a = ic.Assemblage(tuple(ic.DichotomicMeasurement.projective(d) for d in dirs))
        point = checks.pm_point(state_dirs, effect_rows(a))

        def run(e=e, a=a):
            behavior = ic.pm_behavior(e, a)
            oracle = ic.PMPolytope(3, len(e), len(a))
            return ic.fw_membership(behavior.data, oracle, max_iter=SNUB_MAX_ITER)

        decisions.append(
            Decision(
                f"snub mirror={mirror}",
                run,
                _membership_check(
                    point,
                    lambda s, shape=point.shape: checks.pm_vertex(s, 3, shape),
                    lambda M: ic.pm_lmo(M, 3),
                    "inside",
                ),
            )
        )
    return decisions


# ---------------------------------------------------------------------------
# seesaw_certify: see-saw search then certification, d = 2
# ---------------------------------------------------------------------------

# One of each size and visibility: a batch takes about 1 s, so a 60 s run
# repeats each decision forty times or more and its fastest repeat holds still.
SEESAW_DECISIONS = 8
SEESAW_ROUNDS = 10
SEESAW_STATES = 8
SEESAW_SIZES = (2, 3, 4, 5)
SEESAW_ETAS = (0.6875, 0.95)
# Seed of the fixed sets; the run's seed only orders them.
SEESAW_INSTANCE = 2407


def _doubled_point(report) -> np.ndarray:
    """Behaviour of the ensemble plus complements, from Bloch vectors."""
    r = np.array([rho.bloch for rho in report.ensemble])
    return checks.pm_point(np.vstack([r, -r]), effect_rows(report.assemblage))


def build_seesaw_certify(ic, rng, workdir) -> list[Decision]:
    """Unbiased assemblages; sizes and the two visibilities in fixed shares.

    At 0.6875 every noisy projective set is bit-simulable, so the see-saw must
    find no violation.  At 0.95 a set can be classical (two nearly parallel
    directions), but the see-saw certifies each of these four with a Bell
    inequality, so each must come back outside: a see-saw that finds fewer
    violations fails rather than running faster.

    Random sets differ widely in the work their see-saw takes, and so does
    one set in a turned frame, since the see-saw's restarts are drawn in a
    fixed frame.  So the sets and the see-saw's own random draws are fixed,
    and the seed only orders the batch: every seed does the same work.
    """
    fixed = np.random.default_rng(SEESAW_INSTANCE)
    decisions = []
    for i in range(SEESAW_DECISIONS):
        n = SEESAW_SIZES[(i // len(SEESAW_ETAS)) % len(SEESAW_SIZES)]
        eta = SEESAW_ETAS[i % len(SEESAW_ETAS)]
        a = ic.Assemblage(
            tuple(ic.DichotomicMeasurement.noisy_projective(d, eta) for d in unit_vectors(fixed, n))
        )
        seed = int(fixed.integers(2**63))

        def run(a=a, seed=seed):
            e, gap = ic.seesaw_ensemble_search(
                a, 2, SEESAW_ROUNDS, n_states=SEESAW_STATES, rng=np.random.default_rng(seed)
            )
            return gap, ic.certify_incompatibility(a, e, 2)

        def check(result, a=a, eta=eta):
            gap, report = result
            verdict = report.verdict
            if eta == SEESAW_ETAS[0] and (gap != 0.0 or verdict.status != "inside"):
                return verdict.status, f"at visibility {eta}: gap {gap!r}, {verdict.status}"
            if eta == SEESAW_ETAS[1] and verdict.status != "outside":
                return verdict.status, f"at visibility {eta}: expected outside, got {verdict.status}"
            if eta == SEESAW_ETAS[1] and not gap > 0.0:
                # A random ensemble is often outside already; the see-saw
                # itself has to find the violation.
                return verdict.status, f"at visibility {eta}: see-saw gap {gap!r}"
            point = _doubled_point(report)
            problem = checks.check_membership(
                verdict,
                point,
                lambda s: checks.pm_vertex(s, 2, point.shape),
                lambda M: ic.pm_lmo(M, 2),
            )
            if problem is None and verdict.is_outside:
                if report.bell is None:
                    problem = "outside at d = 2 on unbiased measurements without a Bell certificate"
                else:
                    problem = checks.check_bell_certificate(
                        report.bell, effect_rows(a), ic.bell_lmo
                    )
            return verdict.status, problem

        decisions.append(Decision(f"seesaw n={n} eta={eta}", run, check))
    return [decisions[k] for k in rng.permutation(len(decisions))]


# ---------------------------------------------------------------------------
# oracle_wide: exact enumeration dominates
# ---------------------------------------------------------------------------

BELL_SIDE = 14
PM_WIDE_STATES = 10
PM_WIDE_SETTINGS = 6
PM_WIDE_DIM = 3
PM_WIDE_ETA = 0.5
WIDE_PAIRS = 2
# Seed of the fixed tables and scenarios; the run's seed only relabels them.
WIDE_INSTANCE = 2407

# Two settings per side that reach the CHSH value 2 sqrt(2) on their block.
CHSH_ALICE = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
CHSH_BOB = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]) / np.sqrt(2.0)


def chsh_planted_table(rng, n: int) -> np.ndarray:
    """n x n correlator table a_i . b_j whose settings include a CHSH quadruple.

    The block violates CHSH, and a block of a local table is local, so the
    table is outside the local polytope whatever the other settings are.
    """
    R = random_rotation(rng)
    alice = np.vstack([CHSH_ALICE, unit_vectors(rng, n - 2)]) @ R.T
    bob = np.vstack([CHSH_BOB, unit_vectors(rng, n - 2)]) @ R.T
    return alice[rng.permutation(n)] @ bob[rng.permutation(n)].T


def build_oracle_wide(ic, rng, workdir) -> list[Decision]:
    """Bell correlator tables that are outside and d = 3 PM scenarios that are inside.

    The PM measurements have visibility 1/2, where every set of qubit
    measurements is jointly measurable and so has a two-message model for
    any ensemble (a three-message one all the more).

    Random instances of this size differ by up to a third in the iterations
    they need, so the instances are fixed and the seed permutes settings and
    states and turns the PM frame.  That changes no probability, and every
    seed does the same work.
    """
    fixed = np.random.default_rng(WIDE_INSTANCE)
    decisions = []
    for _ in range(WIDE_PAIRS):
        C = chsh_planted_table(fixed, BELL_SIDE)
        C = C[rng.permutation(BELL_SIDE)][:, rng.permutation(BELL_SIDE)]
        decisions.append(
            Decision(
                f"bell {BELL_SIDE}x{BELL_SIDE}",
                lambda C=C: ic.fw_membership(C, ic.BellPolytope(*C.shape)),
                _membership_check(
                    C,
                    lambda s, shape=C.shape: checks.sign_vertex(s, shape),
                    ic.bell_lmo,
                    "outside",
                ),
            )
        )
        R = random_rotation(rng)
        state_dirs = unit_vectors(fixed, PM_WIDE_STATES)[rng.permutation(PM_WIDE_STATES)] @ R.T
        meas_dirs = unit_vectors(fixed, PM_WIDE_SETTINGS)[rng.permutation(PM_WIDE_SETTINGS)] @ R.T
        e = ic.Ensemble(tuple(ic.QubitState.pure(r) for r in state_dirs))
        a = ic.Assemblage(
            tuple(ic.DichotomicMeasurement.noisy_projective(d, PM_WIDE_ETA) for d in meas_dirs)
        )
        point = checks.pm_point(state_dirs, effect_rows(a))

        def run(e=e, a=a):
            behavior = ic.pm_behavior(e, a)
            oracle = ic.PMPolytope(PM_WIDE_DIM, len(e), len(a))
            return ic.fw_membership(behavior.data, oracle)

        decisions.append(
            Decision(
                f"pm d={PM_WIDE_DIM} {PM_WIDE_STATES}x{PM_WIDE_SETTINGS}",
                run,
                _membership_check(
                    point,
                    lambda s, shape=point.shape: checks.pm_vertex(s, PM_WIDE_DIM, shape),
                    lambda M: ic.pm_lmo(M, PM_WIDE_DIM),
                    "inside",
                ),
            )
        )
    return decisions


# ---------------------------------------------------------------------------
# jm_check: in-process CLI on JSON files
# ---------------------------------------------------------------------------

# 25 sets: a batch takes about 1 s, so a 60 s run repeats each decision forty
# times or more and its fastest repeat holds still.
JM_PAIR_REJECTED = 10
JM_COMPATIBLE = 11
JM_BUDGET = 4
# Seed of the fixed sets; the run's seed only turns and orders them.
JM_INSTANCE = 2407


def _perpendicular_pair(rng) -> np.ndarray:
    """Two unit vectors 70-110 degrees apart; their pair threshold is below 0.72."""
    u = unit_vectors(rng, 1)[0]
    w = np.cross(u, unit_vectors(rng, 1)[0])
    w /= np.linalg.norm(w)
    angle = np.deg2rad(rng.uniform(70.0, 110.0))
    return np.array([u, np.cos(angle) * u + np.sin(angle) * w])


def _jm_inputs(rng) -> list[tuple[str, np.ndarray, float]]:
    """(expected outcome, directions, visibility) in fixed shares.

    pair: the first two directions are 70-110 degrees apart at visibility
    0.75-0.9, above their pair threshold, so the norm screen rejects.
    jm: visibility 0.4-0.5; every set of noisy projective qubit measurements
    at visibility 1/2 or less is jointly measurable.
    budget: a triple within 5 degrees of orthogonal (plus, for four
    settings, one random direction) at 0.62-0.68: every pair passes the
    screen, the set is incompatible, and Dykstra runs out its budget.  So
    the right answer is "undecided" after the whole budget, or "not_jm" from
    anything but the pair screen (a witness-producing search would give it).
    """
    sizes = (2, 3, 4)
    out = []
    for i in range(JM_PAIR_REJECTED):
        n = sizes[i % 3]
        dirs = np.vstack([_perpendicular_pair(rng), unit_vectors(rng, n - 2)])
        out.append(("pair", dirs, rng.uniform(0.75, 0.9)))
    for i in range(JM_COMPATIBLE):
        out.append(("jm", unit_vectors(rng, sizes[i % 3]), rng.uniform(0.4, 0.5)))
    for i in range(JM_BUDGET):
        frame = random_rotation(rng)
        tilt = np.deg2rad(5.0) * unit_vectors(rng, 3) * rng.uniform(0.2, 1.0, size=(3, 1))
        dirs = frame + tilt
        if i % 2:
            dirs = np.vstack([dirs, unit_vectors(rng, 1)])
        out.append(("budget", dirs, rng.uniform(0.62, 0.68)))
    return out


def build_jm_check(ic, rng, workdir) -> list[Decision]:
    """Assemblages written as JSON, each decided by ``incompat jm-check``.

    Random sets differ by up to half in the Dykstra iterations they take, so
    the sets are fixed, and the seed turns every direction and orders the
    batch; neither changes whether a set is jointly measurable.
    """
    inputs = _jm_inputs(np.random.default_rng(JM_INSTANCE))
    R = random_rotation(rng)
    decisions = []
    for k, i in enumerate(rng.permutation(len(inputs))):
        kind, dirs, eta = inputs[i]
        dirs = dirs @ R.T
        a = ic.Assemblage(tuple(ic.DichotomicMeasurement.noisy_projective(d, eta) for d in dirs))
        path = os.path.join(workdir, f"jm-{k:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(a.to_json_list(), fh)

        def run(path=path):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ic.cli.main(["jm-check", "--assemblage", path])
            return code, buf.getvalue()

        def check(result, a=a, kind=kind):
            code, text = result
            report = json.loads(text)
            verdict = report["verdict"]
            reason = report.get("reason")
            if (code == 1) != (verdict == "undecided") or code not in (0, 1):
                return verdict, f"exit code {code} for a {verdict} report"
            if kind == "pair" and (verdict, reason) != ("not_jm", "pair-norm-criterion"):
                return verdict, f"expected a pair-criterion rejection, got {verdict} ({reason})"
            if kind == "jm" and verdict != "jm":
                return verdict, f"expected jm, got {verdict}"
            if kind == "budget" and verdict not in ("undecided", "not_jm"):
                return verdict, f"expected undecided or not_jm, got {verdict}"
            if kind == "budget" and reason == "pair-norm-criterion":
                return verdict, "every pair of a budget set passes the pair criterion"
            if verdict == "jm":
                mother = ic.MotherPOVM.from_json_dict(report["mother"])
                if not mother.is_valid_for(a, 1e-8):
                    return verdict, "emitted mother POVM does not reproduce the assemblage"
            elif reason == "pair-norm-criterion":
                i, j = report["pair"]
                if ic.busch_pair_criterion(a[i], a[j])[0]:
                    return verdict, f"pair {i},{j} rejected but the pair criterion accepts it"
            elif reason == "orthogonal-triple-threshold":
                if ic.noisy_pauli_triple_jm(report["visibility"]):
                    return verdict, "triple rejected below the exact threshold"
            elif verdict == "undecided":
                budget = report["parameters"]["max_iter"]
                used = report.get("iterations")
                if used != budget:
                    return verdict, f"undecided after {used} of {budget} iterations"
            return verdict, None

        decisions.append(Decision(f"jm {kind} n={len(a)}", run, check))
    return decisions


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "snub_inside",
            "FW inner projection does ~94% of the work and the oracle ~5%: "
            "6 Pauli eigenstates x 16 of the 24 snub-cube settings at d=3, both inside",
            build_snub_inside,
        ),
        Workload(
            "seesaw_certify",
            "many short FW runs, inside and outside: FW self time about half, the exact "
            "oracle about a third; the only workload with see-saw, witness transfer and "
            "Bell certificates",
            build_seesaw_certify,
            min_batches=13,  # 104 decision samples, so ten or more lie beyond p90
        ),
        Workload(
            "oracle_wide",
            "exact enumeration and its memory dominate, inner projection minor; "
            "covers both the Bell and the PM oracle routes",
            build_oracle_wide,
        ),
        Workload(
            "jm_check",
            "only the jm and cli layers work, polytope absent; mixes Dykstra runs that "
            "converge with runs that exhaust the budget",
            build_jm_check,
            min_batches=4,  # 100 decision samples, so ten or more lie beyond p90
        ),
    )
}
