import copy
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import nnls

from incompat import polytope
from incompat.correlations import pm_behavior
from incompat.gallery import pauli_eigenstate_ensemble, pauli_set, snub_cube_set
from incompat.polytope import (
    BellPolytope,
    EnumerationBudgetError,
    PMPolytope,
    PMStrategy,
    SignAssignment,
    bell_lmo,
    brute_force_membership,
    enumerate_pm_strategies,
    enumerate_sign_assignments,
    fw_membership,
    pm_lmo,
)
from incompat.qcore import Assemblage, DichotomicMeasurement, Ensemble, QubitState, frozen

TSIRELSON = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)


class TestPMOracle:
    def test_zero_coefficients(self):
        _, value = pm_lmo(np.zeros((2, 2, 2)), 2)
        assert value == 0.0

    def test_single_indicator(self):
        M = np.zeros((2, 1, 2))
        M[0, 0, 0] = 1.0
        strategy, value = pm_lmo(M, 2)
        assert value == pytest.approx(1.0)
        assert strategy.g[strategy.f[0]][0] == 0

    def test_constant_coefficients(self):
        M = np.full((3, 2, 2), 0.7)
        _, value = pm_lmo(M, 2)
        assert value == pytest.approx(0.7 * 3 * 2)

    def test_exact_against_full_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            n_x = int(rng.integers(1, 4))
            n_y = int(rng.integers(1, 3))
            M = rng.normal(size=(n_x, n_y, 2))
            _, value = pm_lmo(M, d)
            best = max(
                float(np.sum(M * s.vector()))
                for s in enumerate_pm_strategies(d, n_x, n_y)
            )
            assert value == pytest.approx(best, abs=1e-10)

    def test_oracle_routes_agree(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            d = int(rng.integers(1, 4))
            n_x = int(rng.integers(1, 5))
            n_y = int(rng.integers(1, 4))
            M = rng.normal(size=(n_x, n_y, 2))
            reference = pm_lmo(M, d)[1]
            forced_g = PMPolytope(d, n_x, n_y)
            forced_g._use_g_route = True
            assert forced_g.lmo(M)[1] == pytest.approx(reference, abs=1e-10)

    def test_budget_error(self):
        with pytest.raises(EnumerationBudgetError):
            pm_lmo(np.zeros((30, 1, 2)), 3)

    def test_polytope_budget_error_when_both_routes_blow_up(self):
        with pytest.raises(EnumerationBudgetError):
            PMPolytope(3, 24, 24)

    @pytest.mark.parametrize("n_y", [3, 13])
    def test_huge_dimension_fails_on_the_encoding_budget_without_building_2_to_the_d(self, n_y):
        # 2^(d n_y) would be a 4e12-bit integer; six states use at most six
        # messages, so d drops to 6 before anything is counted
        assert PMPolytope(10**12, 6, n_y).d == 6
        with pytest.raises(EnumerationBudgetError, match=r"^30\^30 = \d+ encodings"):
            PMPolytope(10**12, 30, 13)

    def test_a_count_past_python_s_digit_limit_still_raises_the_budget_error(self):
        # 5000^5000 has 18495 digits; str() refuses ints past 4300
        with pytest.raises(EnumerationBudgetError, match=r"^5000\^5000 = about 10\^18495 encodings"):
            PMPolytope(5000, 5000, 20)

    @pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 2), (2, 3, 0), (-2, 6, 3), (1, -1, 1)])
    def test_polytope_rejects_a_scenario_below_one(self, shape):
        d, n_x, n_y = shape
        message = (
            f"^PM scenario needs d, n_x and n_y of at least 1; got d={d}, n_x={n_x}, n_y={n_y}$"
        )
        with pytest.raises(ValueError, match=message):
            PMPolytope(d, n_x, n_y)

    @pytest.mark.parametrize(
        "make, scenario",
        [(lambda: PMPolytope(2.7, 4, 2), "PM"), (lambda: PMPolytope("3", 4, 2), "PM"),
         (lambda: PMPolytope(2, True, 2), "PM"), (lambda: BellPolytope(2.7, 2), "Bell"),
         (lambda: BellPolytope(2, False), "Bell")],
    )
    def test_a_size_that_is_not_an_integer_is_refused_not_truncated(self, make, scenario):
        with pytest.raises(ValueError, match=f"^{scenario} scenario needs .* to be integers; got "):
            make()

    def test_numpy_integer_sizes_are_accepted(self):
        poly = PMPolytope(np.int64(2), np.int32(4), np.uint8(2))
        assert (poly.d, poly.point_shape) == (2, (4, 2, 2))
        assert all(type(n) is int for n in (poly.d, *poly.point_shape))
        assert BellPolytope(np.int64(2), 3).point_shape == (2, 3)


class TestBellOracle:
    def test_chsh_coefficients(self):
        M = np.array([[1.0, 1.0], [1.0, -1.0]])
        assignment, value = bell_lmo(M)
        assert value == pytest.approx(2.0)
        brute = max(
            float(np.sum(M * s.vector())) for s in enumerate_sign_assignments(2, 2)
        )
        assert brute == pytest.approx(2.0)

    def test_zero(self):
        _, value = bell_lmo(np.zeros((2, 3)))
        assert value == 0.0

    def test_single_entry(self):
        M = np.zeros((2, 2))
        M[1, 0] = 1.0
        assignment, value = bell_lmo(M)
        assert value == pytest.approx(1.0)
        assert assignment.alpha[1] * assignment.beta[0] == 1

    def test_exact_against_full_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(80):
            n_a = int(rng.integers(1, 5))
            n_b = int(rng.integers(1, 5))
            M = rng.normal(size=(n_a, n_b))
            _, value = bell_lmo(M)
            best = max(
                float(np.sum(M * s.vector()))
                for s in enumerate_sign_assignments(n_a, n_b)
            )
            assert value == pytest.approx(best, abs=1e-10)

    def test_budget_error(self):
        with pytest.raises(EnumerationBudgetError):
            bell_lmo(np.zeros((40, 40)))

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0), (-1, 3)])
    def test_polytope_rejects_a_scenario_below_one(self, shape):
        # an empty scenario used to be decided "inside"
        n_a, n_b = shape
        with pytest.raises(ValueError, match=f"^Bell scenario .*; got n_a={n_a}, n_b={n_b}$"):
            BellPolytope(n_a, n_b)


class TestAdapters:
    @pytest.mark.parametrize(
        "poly",
        [PMPolytope(2, 3, 2), PMPolytope(3, 4, 1), PMPolytope(2, 1, 3), BellPolytope(2, 3)],
    )
    def test_lmo_takes_m_flat_or_shaped(self, poly):
        M = np.random.default_rng(34).normal(size=poly.point_shape)
        strategy, value = poly.lmo(M)
        assert poly.lmo(M.ravel()) == (strategy, value)
        assert poly.lmo(M.tolist()) == (strategy, value)
        assert poly.vertex(strategy) is strategy.row


class TestOneBudget:
    """pm_lmo, bell_lmo and BellPolytope read DEFAULT_ORACLE_BUDGET on every
    call; PMPolytope reads it once, when it is constructed."""

    MESSAGE = r"^(\d+\^\d+|C\(\d+, \d+\)) = \d+ [a-z ]+ exceed the oracle budget 100$"

    @pytest.fixture(autouse=True)
    def low_budget(self, monkeypatch):
        monkeypatch.setattr(polytope, "DEFAULT_ORACLE_BUDGET", 100)

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda: pm_lmo(np.zeros((5, 1, 2)), 3), "3^5 = 243 encodings"),
            (lambda: bell_lmo(np.zeros((7, 7))), "2^7 = 128 sign vectors"),
            (lambda: BellPolytope(7, 7).lmo(np.zeros(49)), "2^7 = 128 sign vectors"),
            (lambda: PMPolytope(3, 5, 4), "3^5 = 243 encodings"),
            (lambda: PMPolytope(2, 20, 4), "C(17, 2) = 136 response tables"),
        ],
        ids=["pm_lmo", "bell_lmo", "bell_adapter", "pm_adapter_f", "pm_adapter_g"],
    )
    def test_every_oracle_raises_the_one_message(self, call, expected):
        with pytest.raises(EnumerationBudgetError, match=self.MESSAGE) as info:
            call()
        assert str(info.value).startswith(expected)

    def test_within_the_budget_nothing_raises(self):
        assert pm_lmo(np.zeros((4, 1, 2)), 3)[1] == 0.0
        assert bell_lmo(np.zeros((6, 6)))[1] == 0.0
        assert PMPolytope(2, 20, 3)._use_g_route


def _reference_route(d: int, n_x: int, n_y: int) -> bool:
    """The walked-count rule: the response route when its C(2^n_y + d - 1, d)
    sorted tables, which need 2^(n_y + 1) <= _CHUNK_SIZE, are fewer than the
    d^n_x encodings; the budget then counts the route taken."""
    budget, top = polytope.DEFAULT_ORACLE_BUDGET, 2**n_y + d - 1
    tables = math.comb(top, d) if 2 ** (n_y + 1) <= polytope._CHUNK_SIZE else None
    over = "exceed the oracle budget"
    if tables is not None and tables < d**n_x:
        if tables > budget:
            raise EnumerationBudgetError(f"C({top}, {d}) = {tables} response tables {over} {budget}")
        return True
    if d**n_x > budget:
        raise EnumerationBudgetError(f"{d}^{n_x} = {d**n_x} encodings {over} {budget}")
    return False


def _priced_at_all_tables(d: int, n_x: int, n_y: int) -> bool:
    """The route before the walk was counted: responses only when all 2^(d n_y)
    tables were fewer than the d^n_x encodings."""
    return 2 ** (d * n_y) < d**n_x


def _route_or_message(make) -> bool | str:
    try:
        return make()
    except EnumerationBudgetError as error:
        return str(error)


ROUTE_GRID = list(itertools.product(range(1, 5), range(1, 15), range(1, 9)))


class TestRouteChoice:
    """PMPolytope walks the route with fewer candidates among those in budget."""

    def test_the_route_walks_fewer_candidates(self):
        both = 0
        for d, n_x, n_y in ROUTE_GRID:
            if max(d**n_x, 2 ** (d * n_y)) > polytope.DEFAULT_ORACLE_BUDGET:
                continue
            both += 1
            encodings, tables = d**n_x, math.comb(2**n_y + d - 1, d)
            if PMPolytope(d, n_x, n_y)._use_g_route:
                assert tables < encodings, (d, n_x, n_y)
            else:
                assert encodings <= tables, (d, n_x, n_y)
        assert both > 300

    @pytest.mark.parametrize("budget", [None, 100])
    def test_accepts_and_refuses_what_the_reference_rule_does(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(polytope, "DEFAULT_ORACLE_BUDGET", budget)
        refused = 0
        for shape in ROUTE_GRID:
            new = _route_or_message(lambda: PMPolytope(*shape)._use_g_route)
            reference = _route_or_message(lambda: _reference_route(*shape))
            refused += isinstance(reference, str)
            assert new == reference, shape
        assert refused > 5

    @pytest.mark.parametrize("shape", [(2, 4, 2), (2, 8, 4), (3, 10, 6)])
    def test_benchmark_shapes_take_the_response_route(self, shape):
        assert PMPolytope(*shape)._use_g_route and not _priced_at_all_tables(*shape)

    @pytest.mark.parametrize("shape", [(2, 4, 2), (2, 6, 3), (2, 8, 4), (3, 7, 4)])
    def test_flipped_shapes_keep_the_verdict_of_the_encoding_route(self, shape):
        # quantum behaviours, mostly inside, and uniform random tables,
        # mostly outside
        d, n_x, n_y = shape
        rng = np.random.default_rng(37)
        routed, forced = PMPolytope(d, n_x, n_y), PMPolytope(d, n_x, n_y)
        forced._use_g_route = False
        assert routed._use_g_route and not _priced_at_all_tables(d, n_x, n_y)
        points = []
        for _ in range(3):
            e = Ensemble(tuple(QubitState.pure(v) for v in rng.normal(size=(n_x, 3))))
            a = Assemblage(
                tuple(
                    DichotomicMeasurement.noisy_projective(v, rng.uniform(0.7, 1.0))
                    for v in rng.normal(size=(n_y, 3))
                )
            )
            q = rng.uniform(size=(n_x, n_y))
            points += [pm_behavior(e, a).data, np.stack([q, 1.0 - q], axis=-1)]
        for point in points:
            status = fw_membership(point, routed).status
            assert status != "undecided"
            assert status == fw_membership(point, forced).status

    def test_six_axes_against_twelve_states_take_the_response_route_at_four_messages(self):
        # 4^12 = 16777216 encodings, C(67, 4) = 766480 sorted tables
        assert PMPolytope(4, 12, 6)._use_g_route

    def test_a_shape_refused_at_the_price_of_all_tables_is_exact(self, monkeypatch):
        # at a budget of 1000: 4^6 = 4096 encodings and 2^12 = 4096 tables,
        # but the walk visits C(11, 4) = 330 sorted tables
        draws = np.random.default_rng(38).integers(-3, 4, size=(6, 6, 3, 2)).astype(float)
        monkeypatch.setattr(polytope, "DEFAULT_ORACLE_BUDGET", 1000)
        oracle = PMPolytope(4, 6, 3)
        assert oracle._use_g_route and min(4**6, 2**12) > 1000
        values = [oracle.lmo(M)[1] for M in draws]
        monkeypatch.undo()
        assert values == [pm_lmo(M, 4)[1] for M in draws]


BENCHMARK_SHAPES = [(2, n_x, n_y) for n_x in (8, 16) for n_y in range(2, 6)] + [
    (3, 10, 6),
    (3, 6, 16),
]


class TestMessageClamp:
    """PMPolytope lowers d to min(d, n_x, 2^n_y): a strategy never answers
    with more distinct response rows, so larger d gives the same polytope."""

    @pytest.mark.parametrize("shape", [(10**4, 3, 1), (3000, 2, 1)])
    def test_a_large_dimension_walks_two_messages_and_keeps_the_maximum(self, shape):
        oracle = PMPolytope(*shape)
        assert oracle.d == 2
        draws = np.random.default_rng(41).integers(-3, 4, size=(4, *oracle.point_shape))
        for M in draws.astype(float):
            assert oracle.lmo(M)[1] == pm_lmo(M, 3)[1]

    @pytest.mark.parametrize("shape", BENCHMARK_SHAPES)
    def test_benchmark_shapes_keep_their_dimension_and_route(self, shape):
        oracle = PMPolytope(*shape)
        assert oracle.d == shape[0]
        assert oracle._use_g_route == _reference_route(*shape)


def _row_index(digits) -> int:
    """Position of an assignment in the lexicographic enumeration of {0, 1}^n."""
    return int("".join(str(int(b)) for b in digits), 2)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedEnumeration:
    """Enumerations longer than one chunk keep the first exact maximiser."""

    @staticmethod
    def _second_chunk_prefix():
        """The high digits, over 17 digits in {0, 1}, that pick the second chunk."""
        rows = polytope._CHUNK_SIZE // 2  # rows in one chunk over {0, 1}
        high = 17 - (rows.bit_length() - 1)  # digits fixed per chunk
        assert high >= 2, "a second chunk that starts with digit 0 needs two high digits"
        return (0,) * (high - 1) + (1,)

    def test_bell_maximiser_in_second_chunk(self):
        rng = np.random.default_rng(31)
        u = rng.integers(1, 5, size=17) * rng.choice([-1, 1], size=17)
        v = rng.integers(1, 5, size=17) * rng.choice([-1, 1], size=17)
        prefix = self._second_chunk_prefix()
        u[: len(prefix)] = np.where(prefix, -1, 1) * abs(u[: len(prefix)])
        # alpha = sign(u) and its negation are the only maximisers; +1 comes
        # first, so sign(u) wins, and its leading (+1, ..., +1, -1) is the
        # second chunk.
        alpha = tuple(int(s) for s in np.sign(u))
        beta = tuple(int(s) for s in np.sign(v))
        rows = polytope._CHUNK_SIZE // 2  # rows in one chunk over {0, 1}
        assert rows <= _row_index(s < 0 for s in alpha) < 2 * rows
        assignment, value = bell_lmo(np.outer(u, v).astype(float))
        assert assignment == SignAssignment(alpha, beta)
        assert value == float(np.abs(u).sum() * np.abs(v).sum())

    def test_pm_maximiser_in_second_chunk(self):
        # Every x prefers one outcome; only encodings that split the two
        # groups serve all of them, and of f and 1 - f the lower one wins.
        prefix = self._second_chunk_prefix()
        f = prefix + tuple(1 if x in (4, 5, 11, 16) else 0 for x in range(len(prefix), 17))
        rows = polytope._CHUNK_SIZE // 2  # rows in one chunk over {0, 1}
        assert rows <= _row_index(f) < 2 * rows
        M = np.full((17, 1, 2), -1.0)
        for x, b in enumerate(f):
            M[x, 0, b] = 2.0
        strategy, value = pm_lmo(M, 2)
        assert strategy == PMStrategy(f, ((0,), (1,)))
        assert value == 34.0

    def test_sign_enumeration_memory_is_bounded(self):
        M = np.random.default_rng(32).normal(size=(20, 20))
        assert _traced_peak(lambda: bell_lmo(M)) <= 64 * 2**20

    def test_response_enumeration_memory_is_bounded(self):
        oracle = PMPolytope(2, 30, 9)
        assert oracle._use_g_route  # 2^18 response tables
        M = np.random.default_rng(33).normal(size=oracle.point_shape)
        assert _traced_peak(lambda: oracle.lmo(M)) <= 128 * 2**20

    def test_response_enumeration_at_twelve_settings_memory_is_bounded(self):
        oracle = PMPolytope(2, 30, 12)
        assert oracle._use_g_route  # C(4097, 2) = 8390656 sorted tables
        M = np.random.default_rng(39).normal(size=oracle.point_shape)
        assert _traced_peak(lambda: oracle.lmo(M)) <= 128 * 2**20

    def test_sorted_tables_stay_small_for_a_large_dimension(self):
        # at n_y = 1 a strategy answers with at most 2 distinct rows, so the
        # walk is over pairs, not over d-tuples of rows
        oracle = PMPolytope(1000, 3, 1)
        assert oracle._use_g_route
        M = np.random.default_rng(40).integers(-3, 4, size=oracle.point_shape).astype(float)
        _clear_table_caches()
        peak = _traced_peak(lambda: oracle.lmo(M))
        assert oracle.d == 2
        assert peak < 8 * 2**20
        assert oracle.lmo(M)[1] == pm_lmo(M, 3)[1]  # three messages serve all three x

    def test_witness_recheck_memory_fits_in_cache(self):
        # certify re-checks a PM witness on the doubled ensemble, 16 states
        # at N = 8, and Bell certificates of up to 20 x 20; both from cold
        # table caches, so the peak counts the low-digit table too
        rng = np.random.default_rng(35)
        M = rng.normal(size=(16, 5, 2))
        _clear_table_caches()
        assert _traced_peak(lambda: pm_lmo(M, 2)) < 8 * 2**20
        M = rng.normal(size=(20, 20))
        _clear_table_caches()
        assert _traced_peak(lambda: bell_lmo(M)) < 12 * 2**20

    def test_response_route_takes_one_chunk_of_response_rows(self):
        # R holds all 2^n_y response rows, and at 2^(n_y + 1) == _CHUNK_SIZE
        # they still fill one chunk
        n_y = polytope._CHUNK_SIZE.bit_length() - 2  # 2^(n_y + 1) == _CHUNK_SIZE
        M = np.random.default_rng(36).integers(-2, 3, size=(3, n_y, 2)).astype(float)
        assert polytope._pm_lmo_over_responses(M, 1)[1] == pm_lmo(M, 1)[1]


def _clear_table_caches():
    polytope._lex_onehot.cache_clear()
    polytope._sorted_tables.cache_clear()


class TestChunkSizeInvariance:
    """The chunk size sets memory only: strategies and values stay the same.

    Integer-valued coefficients make every sum exact, so the comparison holds
    on any BLAS.  Each shape walks several chunks at the package's chunk size.
    """

    SIZES = (1 << 16, polytope._CHUNK_SIZE)

    @pytest.fixture
    def results_at_each_size(self, monkeypatch):
        def run(oracle, coefficients):
            results = []
            for size in self.SIZES:
                monkeypatch.setattr(polytope, "_CHUNK_SIZE", size)
                _clear_table_caches()
                results.append([oracle(M) for M in coefficients])
            return results

        yield run
        _clear_table_caches()

    @staticmethod
    def _integer_draws(rng, shape, mirror):
        """A plain draw and one whose second half mirrors the first."""
        plain, M = rng.integers(-2, 3, size=(2, *shape)).astype(float)
        half = shape[0] // 2
        M[half : 2 * half] = mirror(M[:half])
        return [plain, M]

    @pytest.mark.parametrize("d, n_x, n_y", [(2, 16, 5), (2, 17, 2), (3, 10, 6), (4, 7, 3)])
    def test_encoding_route(self, results_at_each_size, d, n_x, n_y):
        rng = np.random.default_rng(100 * d + n_x)
        # certify's doubled witnesses: each twin has its outcomes swapped
        draws = self._integer_draws(rng, (n_x, n_y, 2), lambda half: half[:, :, ::-1])
        wide, narrow = results_at_each_size(lambda M: pm_lmo(M, d), draws)
        assert narrow == wide

    @pytest.mark.parametrize("n_x", [8, 20])
    def test_response_route_at_seven_settings(self, results_at_each_size, n_x):
        # 2^7 response rows give C(129, 2) = 8256 sorted pairs: one block at
        # 2^16, one block per first row at 2^14
        rng = np.random.default_rng(200 + n_x)
        draws = self._integer_draws(rng, (n_x, 7, 2), lambda half: half[:, :, ::-1])
        wide, narrow = results_at_each_size(lambda M: polytope._pm_lmo_over_responses(M, 2), draws)
        assert narrow == wide

    @pytest.mark.parametrize("shape", [(14, 14), (16, 16), (15, 18), (18, 15)])
    def test_sign_route(self, results_at_each_size, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        # a doubled Bell witness: the second half's rows negate the first's
        draws = self._integer_draws(rng, shape, lambda half: -half)
        wide, narrow = results_at_each_size(bell_lmo, draws)
        assert narrow == wide


def _random_vertex_set(rng, kind):
    """0/1 rows, plain or with duplicate or affinely dependent rows added."""
    n = int(rng.integers(2, 9))
    rows = rng.integers(0, 2, size=(int(rng.integers(1, 14)), n)).astype(float)
    if kind == "duplicates":
        rows = np.vstack([rows, rows[rng.integers(0, len(rows), size=3)]])
    elif kind == "dependent":
        for _ in range(3):
            a, b, c = rows[rng.integers(0, len(rows), size=3)]
            if np.all((a + b - c >= 0) & (a + b - c <= 1)):
                rows = np.vstack([rows, a + b - c])
    return rows[rng.permutation(len(rows))]


def _corral_state(corral):
    """Everything a corral's next step reads, arrays by their bytes."""
    s, k = corral.s, corral.k
    arrays = (corral.V[:k], corral.X[:s], corral.R[:s], corral.W[:s], corral.F[:s, :s],
              corral.x, corral.r)
    return (s, k, list(corral.support), corral.base, corral.obj,
            *(a.tobytes() for a in arrays))


def _nnls_distance(rows, p):
    """Distance from p to the hull of the rows by Lawson-Hanson NNLS.

    With R = rows - p, the nonnegative minimiser u of |R^T u|^2 + (sum u - 1)^2
    is a positive multiple of the min-norm-point weights.
    """
    system = np.vstack([(rows - p).T, np.ones(len(rows))])
    rhs = np.zeros(system.shape[0])
    rhs[-1] = 1.0
    u, _ = nnls(system, rhs)
    return float(np.linalg.norm(u / u.sum() @ rows - p))


def _fraction_affine_weights(rows, p):
    """Minimiser of |w @ rows - p| over sum(w) = 1, in Fraction arithmetic.

    Gaussian elimination on the bordered system [[G, 1], [1^T, 0]] with
    G = rows rows^T; returns None when the rows are affinely dependent.
    """
    m = len(rows)
    rows = [[Fraction(int(v)) for v in r] for r in rows]
    p = [Fraction(int(v)) for v in p]
    A = [
        [sum(a * b for a, b in zip(ri, rj)) for rj in rows]
        + [Fraction(1), sum(a * b for a, b in zip(ri, p))]
        for ri in rows
    ]
    A.append([Fraction(1)] * m + [Fraction(0), Fraction(1)])
    for col in range(m + 1):
        pivot = next((r for r in range(col, m + 1) if A[r][col] != 0), None)
        if pivot is None:
            return None
        A[col], A[pivot] = A[pivot], A[col]
        for r in range(m + 1):
            if r != col and A[r][col] != 0:
                factor = A[r][col] / A[col][col]
                A[r] = [a - factor * b for a, b in zip(A[r], A[col])]
    return [A[i][-1] / A[i][i] for i in range(m)]


class TestInnerProjection:
    """Wolfe's min-norm point and its affine step against exact references."""

    @pytest.mark.parametrize("kind", ["plain", "duplicates", "dependent"])
    @pytest.mark.parametrize("where", ["inside", "outside"])
    def test_min_norm_point_matches_nnls(self, kind, where):
        rng = np.random.default_rng(["plain", "duplicates", "dependent"].index(kind))
        for _ in range(60):
            rows = _random_vertex_set(rng, kind)
            if where == "inside":
                p = rng.dirichlet(np.ones(len(rows))) @ rows
            else:
                p = rng.uniform(-0.5, 1.5, size=rows.shape[1])
            start = np.zeros(len(rows))
            start[0] = 1.0
            corral = polytope._Corral(p, rows, start)
            corral.project()
            w, x = corral.weights(), corral.x
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.allclose(x, w @ rows, rtol=0.0, atol=1e-15)
            assert abs(np.linalg.norm(x - p) - _nnls_distance(rows, p)) <= 1e-12

    @pytest.mark.parametrize("kind", ["plain", "duplicates", "dependent"])
    def test_entering_row_skips_only_the_first_rescan(self, kind):
        # Buffer some rows, project, then add one more: entering it directly
        # gives the bits of a full rescan when it strictly maximises the
        # residual score, and leaves the corral alone when it does not clear
        # the rescan's threshold.
        rng = np.random.default_rng(40 + ["plain", "duplicates", "dependent"].index(kind))
        same = unchanged = 0
        for _ in range(200):
            rows = _random_vertex_set(rng, kind)
            if len(rows) < 2:
                continue
            p = rng.uniform(-0.5, 1.5, size=rows.shape[1])
            m = int(rng.integers(1, len(rows)))
            start = np.zeros(m)
            start[0] = 1.0
            corral = polytope._Corral(p, rows[:m], start)
            corral.project()
            row = rows[m]
            score, others = row @ corral.r, corral.V[: corral.k] @ corral.r
            cleared = score > corral.base + 1e-13 * (1.0 + abs(corral.base))
            rescanned, entered = copy.deepcopy(corral), copy.deepcopy(corral)
            rescanned.add(row)
            rescanned.project()
            entered.add(row)
            before = copy.deepcopy(entered)
            entered.project(entering=entered.k - 1)
            if not cleared:
                assert _corral_state(entered) == _corral_state(before)
                unchanged += 1
            elif score > others.max():
                assert entered.weights().tobytes() == rescanned.weights().tobytes()
                assert entered.x.tobytes() == rescanned.x.tobytes()
                assert entered.r.tobytes() == rescanned.r.tobytes()
                same += 1
        assert same > 20 and unchanged > 20

    @pytest.mark.parametrize("state", ["fresh", "stalled"])
    def test_an_unsettled_corral_rescans_before_entering(self, state):
        # A corral that has not settled at the bar (never projected, or
        # ended by a stall) may hold rows that clear it.  The added row ties
        # the best of them, so a rescan picks the older row, and entering
        # must give the bits of that rescan.
        rng = np.random.default_rng(["fresh", "stalled"].index(state) + 50)
        checked = 0
        for _ in range(100):
            rows = _random_vertex_set(rng, "plain")
            if len(rows) < 2:
                continue
            p = rng.uniform(-0.5, 1.5, size=rows.shape[1])
            start = np.zeros(len(rows))
            start[0] = 1.0
            corral = polytope._Corral(p, rows, start)
            if state == "stalled":
                # affine steps that keep the weights leave x where it is
                corral.affine = lambda: corral.W[: corral.s].copy()
                corral.project()
                del corral.affine
                if corral.settled:  # no row cleared the bar: nothing to stall on
                    continue
            assert not corral.settled
            scores = corral.V[: corral.k] @ corral.r
            if scores.max() <= corral.bar:
                continue
            rescanned, entered = copy.deepcopy(corral), copy.deepcopy(corral)
            for c in (rescanned, entered):
                c.add(rows[int(scores.argmax())])
            rescanned.project()
            entered.project(entering=entered.k - 1)
            assert _corral_state(entered) == _corral_state(rescanned)
            checked += 1
        assert checked > 20

    def test_affine_weights_match_exact_solve(self):
        rng = np.random.default_rng(34)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 8))
            rows = rng.integers(0, 2, size=(int(rng.integers(1, n + 2)), n))
            p = rng.integers(-1, 3, size=n)
            exact = _fraction_affine_weights(rows, p)
            if exact is None:
                continue
            u = polytope._affine_weights(rows.astype(float), p.astype(float))
            assert np.max(np.abs(u - np.array(exact, dtype=float))) <= 1e-12
            checked += 1

    def test_min_norm_point_merges_a_duplicated_support_row(self):
        # the starting weights already sit on two copies of one vertex
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        p = np.array([0.5, 0.5])
        corral = polytope._Corral(p, rows, np.array([0.5, 0.5, 0.0]))
        corral.project()
        w, x = corral.weights(), corral.x
        assert np.linalg.norm(x - p) < 1e-12
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12

    def test_min_norm_point_leaves_a_dependent_support(self):
        # three collinear distinct rows carry the start; the fourth is needed
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        p = np.array([0.5, 0.5])
        corral = polytope._Corral(p, rows, np.array([1.0, 1.0, 1.0, 0.0]) / 3.0)
        corral.project()
        w, x = corral.weights(), corral.x
        assert np.linalg.norm(x - p) < 1e-12
        assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-12

    def test_affine_weights_reject_dependent_rows(self):
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            polytope._affine_weights(rows, np.zeros(2))


def hand_decomposition_for_eigenstates_xz():
    """Equal mixture of four two-message strategies reproducing the
    six-eigenstate behaviour against projective X and Z."""
    # state order: +x, -x, +y, -y, +z, -z; patterns are response rows (b per y)
    plans = [
        # (f assignment per state, response row per message)
        ((0, 1, 0, 1, 0, 1), ((0, 0), (1, 1))),
        ((0, 1, 0, 1, 1, 0), ((0, 1), (1, 0))),
        ((0, 1, 1, 0, 0, 1), ((0, 0), (1, 1))),
        ((0, 1, 1, 0, 1, 0), ((0, 1), (1, 0))),
    ]
    return [PMStrategy(f, g) for f, g in plans]


class TestFWMembership:
    def test_zero_correlators_inside(self):
        verdict = fw_membership(np.zeros((2, 2)), BellPolytope(2, 2))
        assert verdict.is_inside
        assert verdict.reconstruction_error < 1e-10

    def test_tsirelson_point_outside(self):
        verdict = fw_membership(TSIRELSON, BellPolytope(2, 2))
        assert verdict.is_outside
        w = verdict.witness
        assert w.Q == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert w.L == pytest.approx(2.0, abs=1e-9)
        assert np.allclose(np.abs(w.M), 1.0, atol=1e-9)

    def test_eigenstates_vs_xz_inside_with_hand_oracle(self):
        behavior = pm_behavior(pauli_eigenstate_ensemble(), pauli_set("xz", 1.0))
        strategies = hand_decomposition_for_eigenstates_xz()
        mix = sum(s.vector() for s in strategies) / 4.0
        assert np.allclose(mix, behavior.data, atol=1e-15)
        verdict = fw_membership(behavior.data, PMPolytope(2, 6, 2))
        assert verdict.is_inside
        rebuilt = sum(
            w * s.vector() for w, s in zip(verdict.weights, verdict.strategies)
        )
        assert np.allclose(rebuilt, behavior.data, atol=1e-7)

    def test_witness_reverifies(self):
        rng = np.random.default_rng(24)
        poly = BellPolytope(3, 3)
        count = 0
        for _ in range(40):
            point = rng.uniform(-1.3, 1.3, size=(3, 3))
            verdict = fw_membership(point, poly)
            if verdict.is_outside:
                w = verdict.witness
                _, fresh_l = poly.lmo(w.M)
                assert fresh_l == pytest.approx(w.L, abs=1e-10)
                assert float(w.M.ravel() @ point.ravel()) == pytest.approx(
                    w.Q, abs=1e-10
                )
                count += 1
        assert count > 5

    def test_oracle_argmax_invariant_under_scaling(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            M = rng.normal(size=(2, 2, 2))
            base_strategy, base_value = pm_lmo(M, 2)
            for scale in (0.5, 2.0, 4.0):
                strategy, value = pm_lmo(scale * M, 2)
                assert strategy == base_strategy
                assert value == pytest.approx(scale * base_value, rel=1e-12)

    def test_classification_invariant_under_point_scale(self):
        # witness rescaling is internal; the verdict depends only on the point
        verdict1 = fw_membership(TSIRELSON, BellPolytope(2, 2))
        verdict2 = fw_membership(TSIRELSON.copy(), BellPolytope(2, 2))
        assert verdict1.status == verdict2.status == "outside"

    def test_inside_and_outside_runs_report_convergence(self):
        inside = fw_membership(np.zeros((2, 2)), BellPolytope(2, 2))
        outside = fw_membership(TSIRELSON, BellPolytope(2, 2))
        assert inside.is_inside and inside.termination == "converged"
        assert outside.is_outside and outside.termination == "converged"
        assert "termination" not in inside.to_json_dict()
        assert "termination" not in outside.to_json_dict()

    def test_unfinished_run_reports_iteration_cap(self):
        behavior = pm_behavior(pauli_eigenstate_ensemble(), pauli_set("xz", 1.0))
        verdict = fw_membership(behavior.data, PMPolytope(2, 6, 2), max_iter=1)
        assert verdict.iterations == 1
        assert verdict.termination == "iteration_cap"
        assert fw_membership(behavior.data, PMPolytope(2, 6, 2)).is_inside

    def test_outside_run_calls_the_oracle_once_per_iteration_plus_two(self):
        class Counting(BellPolytope):
            calls = 0

            def lmo(self, M):
                self.calls += 1
                return super().lmo(M)

        poly = Counting(2, 2)
        verdict = fw_membership(TSIRELSON, poly)
        assert verdict.is_outside
        assert poly.calls == verdict.iterations + 2
        poly = Counting(2, 2)
        verdict = fw_membership(TSIRELSON, poly, max_iter=0)
        assert verdict.iterations == 0 and verdict.status in ("outside", "undecided")
        assert poly.calls == (3 if verdict.is_outside else 2)

    def test_an_oracle_that_repeats_a_vertex_stops_the_run(self):
        class Repeating(BellPolytope):
            """Always answers with its first vertex, at an inflated value."""

            first = None

            def lmo(self, M):
                strategy, value = super().lmo(M)
                self.first = self.first or strategy
                return self.first, value + 1.0

        verdict = fw_membership(TSIRELSON, Repeating(2, 2))
        assert (verdict.status, verdict.termination) == ("undecided", "repeated_vertex")
        assert verdict.iterations == 1


def _twin(strategy):
    """Another strategy with the same vertex: Bell (-alpha, -beta), or a
    two-message PM encoding relabelled (f -> 1 - f, g's rows swapped)."""
    if isinstance(strategy, SignAssignment):
        return SignAssignment(tuple(-a for a in strategy.alpha), tuple(-b for b in strategy.beta))
    return PMStrategy(tuple(1 - a for a in strategy.f), strategy.g[::-1])


def _twinning(base):
    """An oracle that answers with its first vertex, then with that vertex's
    twin at an inflated value."""

    class Twinning(base):
        first = None

        def lmo(self, M):
            strategy, value = super().lmo(M)
            if self.first is None:
                self.first = strategy
                return strategy, value
            return _twin(self.first), value + 1.0

    return Twinning


@pytest.fixture
def distinct_buffer(monkeypatch):
    """Check on every projection that the corral buffers no row twice."""
    project = polytope._Corral.project

    def checked(corral, entering=None):
        buffered = corral.V[: corral.k]
        assert len(np.unique(buffered, axis=0)) == corral.k
        project(corral, entering)

    monkeypatch.setattr(polytope._Corral, "project", checked)


class TestTwins:
    @pytest.mark.parametrize(
        "poly, point",
        [(_twinning(BellPolytope)(2, 2), TSIRELSON),
         (_twinning(PMPolytope)(2, 3, 2), np.full((3, 2, 2), 0.5) + [0.3, -0.3])],
        ids=["bell", "pm"],
    )
    def test_a_twin_of_a_buffered_vertex_is_a_repeat(self, poly, point, distinct_buffer):
        verdict = fw_membership(point, poly)
        assert _twin(poly.first) != poly.first
        assert poly.vertex(_twin(poly.first)).tolist() == poly.vertex(poly.first).tolist()
        assert (verdict.termination, verdict.iterations) == ("repeated_vertex", 1)
        assert verdict.strategies == (poly.first,)

    def test_twins_in_the_start_enter_once_at_their_share(self, distinct_buffer):
        poly = PMPolytope(2, 3, 2)
        a, b = PMStrategy((0, 1, 1), ((0, 1), (1, 1))), PMStrategy((0, 0, 1), ((1, 0), (0, 0)))
        start = [a, _twin(a), b]
        point = np.full(poly.point_shape, 2.0)
        verdict = fw_membership(point, poly, start=start, max_iter=0)
        assert verdict.strategies == (a, b)
        mean = np.mean([poly.vertex(s) for s in start], axis=0)
        expected = float(np.linalg.norm(point.ravel() - mean))
        assert verdict.distance_upper == pytest.approx(expected, rel=1e-15)
        inside = fw_membership((2 * a.row + b.row) / 3, poly, start=start)
        assert inside.is_inside and set(inside.strategies) <= {a, b}


class TestPMStrategyVector:
    def test_one_hot_rows_of_the_response_table(self):
        strategy = PMStrategy((1, 0, 1), ((0, 1), (1, 1)))
        vector = strategy.vector()
        expected = [[[0.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]
        assert vector.dtype == float and vector.tolist() == expected
        vector[:] = 7.0
        assert strategy.vector().tolist() == expected

    @pytest.mark.parametrize(
        "strategy", [PMStrategy((1, 0, 1), ((0, 1), (1, 1))), SignAssignment((1, -1), (-1, 1, 1))]
    )
    def test_row_is_built_once_and_read_only(self, strategy):
        row = strategy.row
        assert row is strategy.row and not row.flags.writeable
        assert row.tolist() == strategy.vector().ravel().tolist()
        fresh = strategy.vector()
        fresh[...] = 7.0
        assert strategy.row.tolist() == row.tolist() != fresh.ravel().tolist()


class Counting(BellPolytope):
    """Bell oracle that counts its calls."""

    calls = 0

    def lmo(self, M):
        self.calls += 1
        return super().lmo(M)


# Vertices of a square face, so the four of them are affinely dependent:
# the sign vectors (beta_1, beta_2) on a 1 x 2 Bell scenario, and the response
# tables of a one-message, two-setting PM scenario.
SQUARE_FACES = [
    (
        BellPolytope(1, 2),
        [SignAssignment((1,), b) for b in itertools.product((1, -1), repeat=2)],
    ),
    (
        PMPolytope(1, 1, 2),
        [PMStrategy((0,), (g,)) for g in itertools.product((0, 1), repeat=2)],
    ),
]


class TestWarmStart:
    @pytest.mark.parametrize("poly, corral", SQUARE_FACES)
    def test_square_face_corral_decides_inside(self, poly, corral):
        rows = np.array([poly.vertex(s) for s in corral])
        assert np.linalg.matrix_rank(np.hstack([rows, np.ones((4, 1))])) == 3
        point = np.array([0.1, 0.2, 0.3, 0.4]) @ rows
        verdict = fw_membership(point, poly, start=corral)
        assert verdict.is_inside and verdict.reconstruction_error < 1e-12
        rebuilt = sum(w * poly.vertex(s) for w, s in zip(verdict.weights, verdict.strategies))
        assert np.linalg.norm(rebuilt - point) < 1e-12

    def test_outside_run_calls_the_oracle_once_per_iteration_plus_one(self):
        cold = fw_membership(TSIRELSON, BellPolytope(2, 2))
        assert cold.is_outside and cold.strategies
        assert "active" not in cold.to_json_dict()
        poly = Counting(2, 2)
        point = 0.9 * TSIRELSON
        verdict = fw_membership(point, poly, start=cold.strategies)
        assert verdict.is_outside
        assert poly.calls == verdict.iterations + 1
        assert verdict.witness.L == bell_lmo(verdict.witness.M)[1]
        assert verdict.witness.Q == float(verdict.witness.M.ravel() @ point.ravel())

    @pytest.mark.parametrize("eps_out, status", [(1e-7, "outside"), (10.0, "undecided")])
    def test_every_status_carries_strategies_but_reports_them_with_weights(
        self, eps_out, status
    ):
        verdict = fw_membership(TSIRELSON, BellPolytope(2, 2), eps_out=eps_out)
        assert verdict.status == status and verdict.weights is None
        assert verdict.strategies
        assert all(isinstance(s, SignAssignment) for s in verdict.strategies)
        report = verdict.to_json_dict()
        assert "vertices" not in report and "weights" not in report

    def test_warm_and_cold_runs_agree(self):
        rng = np.random.default_rng(28)
        poly = BellPolytope(3, 3)
        for _ in range(30):
            point = rng.uniform(-1.3, 1.3, size=(3, 3))
            cold = fw_membership(point, poly)
            moved = point + rng.normal(scale=0.05, size=(3, 3))
            warm = fw_membership(moved, poly, start=cold.strategies)
            fresh = fw_membership(moved, poly)
            assert warm.status == fresh.status
            if warm.is_outside:
                assert warm.distance_upper == pytest.approx(fresh.distance_upper, abs=1e-7)

    @pytest.mark.parametrize(
        "poly, strategy",
        [
            (BellPolytope(2, 2), SignAssignment((1, 1, 1), (1, -1))),
            (PMPolytope(2, 3, 2), PMStrategy((0, 1), ((0, 0), (1, 1)))),
            # the right row length, but three distinct rows g[f[x]] for d = 2
            (PMPolytope(2, 3, 2), PMStrategy((0, 1, 2), ((0, 0), (0, 1), (1, 0)))),
            # the right row length, but three signs for n_a = 2
            (BellPolytope(2, 3), SignAssignment((1, 1, -1), (1, -1))),
        ],
    )
    def test_start_of_another_shape_is_rejected(self, poly, strategy):
        point = np.zeros(poly.point_shape)
        with pytest.raises(ValueError, match="start"):
            fw_membership(point, poly, start=[strategy])


    @pytest.mark.parametrize(
        "poly, strategy",
        [
            (PMPolytope(2, 2, 1), PMStrategy((-1, 0), ((0,), (1,)))),  # a negative message
            (PMPolytope(2, 2, 1), PMStrategy((5, 0), ((0,), (1,)))),  # a message past g
            (PMPolytope(2, 2, 1), PMStrategy((0, 1), ((2,), (1,)))),  # a response bit of 2
            (PMPolytope(2, 2, 1), SignAssignment((1, 1), (1,))),
            (BellPolytope(2, 2), PMStrategy((0, 1), ((0, 1), (1, 0)))),
            (PMPolytope(2, 2, 1), PMStrategy((0, 1), ((1.0,), (0,)))),  # a response bit of 1.0
            (PMPolytope(2, 2, 1), PMStrategy((0.0, 1), ((0,), (1,)))),  # a message of 0.0
            (PMPolytope(2, 2, 1), PMStrategy((0, 1), ((True,), (0,)))),  # a response bit of True
            (PMPolytope(2, 2, 1), PMStrategy((0, 1), ((0,), (1, 0)))),  # g rows of unequal length
            (PMPolytope(2, 2, 1), PMStrategy((0, 1), ((0, 1), (1, 0)))),  # g rows of 2 for n_y = 1
            (BellPolytope(2, 2), SignAssignment((1.0, 1), (1, -1))),  # a sign of 1.0
            (BellPolytope(2, 2), SignAssignment((True, 1), (1, -1))),  # a sign of True
        ],
    )
    def test_a_malformed_start_is_rejected(self, poly, strategy):
        point = np.zeros(poly.point_shape)
        with pytest.raises(ValueError, match="^start strategies must be vertices of the polytope$"):
            fw_membership(point, poly, start=[strategy])

    def test_a_start_that_uses_d_of_more_rows_is_accepted(self):
        # g has three rows, but f sends only messages 0 and 2
        strategy = PMStrategy((0, 2, 0), ((0, 0), (1, 1), (1, 0)))
        verdict = fw_membership(strategy.vector(), PMPolytope(2, 3, 2), start=[strategy])
        assert verdict.is_inside and verdict.iterations == 1


class TestBruteForce:
    def test_vertex_is_inside_with_unit_weight(self):
        verts = np.array([s.vector().ravel() for s in enumerate_sign_assignments(2, 2)])
        verdict = brute_force_membership(verts[3], verts)
        assert verdict.is_inside
        assert verdict.reconstruction_error < 1e-10

    def test_point_outside_bounding_box(self):
        verts = np.array([s.vector().ravel() for s in enumerate_sign_assignments(2, 2)])
        point = np.full(4, 2.0)
        verdict = brute_force_membership(point, verts)
        assert verdict.is_outside
        assert verdict.witness.Q > verdict.witness.L

    def test_random_convex_combination_inside(self):
        rng = np.random.default_rng(26)
        verts = np.array(
            [s.vector().ravel() for s in enumerate_pm_strategies(2, 2, 2)]
        )
        for _ in range(20):
            idx = rng.choice(len(verts), size=3, replace=False)
            w = rng.dirichlet(np.ones(3))
            point = w @ verts[idx]
            verdict = brute_force_membership(point, verts)
            assert verdict.is_inside
            assert verdict.reconstruction_error < 1e-9

    def test_budget(self):
        verts = np.zeros((polytope.DEFAULT_VERTEX_BUDGET + 1, 2))
        with pytest.raises(EnumerationBudgetError):
            brute_force_membership(np.zeros(2), verts)

    def test_inside_report_lists_the_vertex_rows(self):
        verdict = brute_force_membership([0.5, 0.5], [[1, 0], [0, 1]])
        assert verdict.to_json_dict() == {
            "verdict": "inside",
            "iterations": 1,
            "vertices": [[1.0, 0.0], [0.0, 1.0]],
            "weights": [0.5, 0.5],
            "reconstruction_error": 0.0,
        }

    def test_verdicts_carry_no_termination(self):
        verts = np.array([s.vector().ravel() for s in enumerate_sign_assignments(2, 2)])
        assert brute_force_membership(verts[0], verts).termination is None
        assert brute_force_membership(np.full(4, 2.0), verts).termination is None


def _tiny_pm_scenario(rng):
    """A two-message scenario with 2-3 states and 1-2 settings, and its vertex list."""
    n_x = int(rng.integers(2, 4))
    n_y = int(rng.integers(1, 3))
    verts = np.array([s.vector().ravel() for s in enumerate_pm_strategies(2, n_x, n_y)])
    return PMPolytope(2, n_x, n_y), verts


def _tiny_pm_point(rng, poly, verts):
    """Half the time a mixture of four vertices, otherwise a random behaviour."""
    if rng.uniform() < 0.5:
        idx = rng.choice(len(verts), size=4)
        return rng.dirichlet(np.ones(4)) @ verts[idx]
    raw = rng.uniform(size=poly.point_shape)
    raw /= raw.sum(axis=2, keepdims=True)
    return raw.ravel()


class TestAgreement:
    def test_fw_matches_brute_force_on_tiny_instances(self):
        rng = np.random.default_rng(27)
        agreements = 0
        for _ in range(100):
            poly, verts = _tiny_pm_scenario(rng)
            point = _tiny_pm_point(rng, poly, verts)
            fw = fw_membership(point, poly)
            if fw.status == "undecided":
                continue  # tolerance band: both may defensibly differ here
            bf = brute_force_membership(point, verts)
            assert fw.status == bf.status
            agreements += 1
        assert agreements >= 90

    def test_warm_started_fw_matches_brute_force(self):
        # each run starts from the corral of a run on another point
        rng = np.random.default_rng(29)
        agreements = 0
        for _ in range(100):
            poly, verts = _tiny_pm_scenario(rng)
            start = fw_membership(_tiny_pm_point(rng, poly, verts), poly).strategies
            point = _tiny_pm_point(rng, poly, verts)
            fw = fw_membership(point, poly, start=start)
            if fw.status == "undecided":
                continue
            assert fw.status == brute_force_membership(point, verts).status
            if fw.is_inside:
                rebuilt = fw.weights @ np.array([poly.vertex(s) for s in fw.strategies])
                assert np.linalg.norm(rebuilt - point) < 1e-9
            agreements += 1
        assert agreements >= 90


def _reference_pm_lmo(M, d):
    """pm_lmo with a score loop over messages and per-entry decoding.

    The plain form of the oracle: per message, the encoding's group sums of
    the outcome difference, clipped at zero and added to the constant in
    message order.
    """
    n_x, n_y, _ = M.shape
    diff = M[:, :, 1] - M[:, :, 0]
    const = float(M[:, :, 0].sum())

    def score(T):
        vals = np.full(T.shape[1], const)
        for mask in T:
            D = mask @ diff
            np.maximum(D, 0.0, out=D)
            vals += D.sum(axis=1)
        return vals, vals

    f, _, _ = polytope._lex_argmax(d, n_x, score, "encodings")
    flat = M.reshape(n_x, n_y * 2)
    table = np.stack([(f == a).astype(float) @ flat for a in range(d)]).reshape(d, n_y, 2)
    g = tuple(tuple(int(b) for b in np.argmax(table[a], axis=1)) for a in range(d))
    return PMStrategy(tuple(int(a) for a in f), g), float(table.max(axis=2).sum())


def _reference_pm_lmo_over_responses(M, d):
    """The response-table oracle with per-entry decoding."""
    n_x, n_y, _ = M.shape
    base = M[:, :, 0].sum(axis=1)
    delta = (M[:, :, 1] - M[:, :, 0]).T

    def score(T):
        per_message = (T[1].reshape(-1, n_y) @ delta).reshape(-1, d, n_x)
        per_message += base
        return per_message.max(axis=1).sum(axis=1), per_message

    bits, value, table = polytope._lex_argmax(2, d * n_y, score, "response tables")
    f = tuple(int(a) for a in np.argmax(table, axis=0))
    g = tuple(tuple(int(b) for b in row) for row in bits.reshape(d, n_y))
    return PMStrategy(f, g), value


def _assert_python_ints(strategy):
    assert all(type(a) is int for a in strategy.f)
    assert all(type(b) is int for row in strategy.g for b in row)
    json.dumps(strategy.to_json_dict())


def _assert_row_is_the_vector(strategy):
    # the oracle fills the row cache; it must hold what vector() builds
    expected = frozen(strategy.vector().ravel())
    assert strategy.row.dtype == expected.dtype and not strategy.row.flags.writeable
    assert np.array_equal(strategy.row, expected)


class TestOnePassOracles:
    """Both PM routes against their per-message, per-entry reference forms."""

    # (d, n_x, n_y, calls); (2, 17, 2) and (3, 10, 2) walk 16 and 27
    # encoding chunks; the d = 2 shapes with n_x = 8 and 16 are those of the
    # seesaw_certify benchmark
    SHAPES = [(2, 3, 2, 40), (2, 8, 3, 40), (3, 5, 2, 40), (4, 4, 2, 20), (2, 6, 5, 20),
              (2, 17, 2, 2), (3, 10, 2, 2),
              *((2, 8, n_y, 30) for n_y in range(2, 6)),
              *((2, 16, n_y, 6) for n_y in range(2, 6))]
    # the response route walks (2, 20, 8) and (3, 6, 6) one prefix at a time
    RESPONSE_SHAPES = SHAPES + [(4, 5, 3, 10), (2, 20, 8, 3), (3, 6, 6, 2)]
    # d > n_x: pm_lmo walks only the labels below n_x, the reference all d
    ABOVE_N_X_SHAPES = [(3, 2, 2, 40), (5, 3, 2, 40), (8, 4, 1, 20), (8, 1, 3, 20), (16, 2, 2, 20)]

    @staticmethod
    def _coefficients(rng, shape, k):
        # integer-valued draws make many exact ties
        if k % 3 == 1:
            return rng.integers(-2, 3, size=shape).astype(float)
        M = rng.normal(size=shape)
        if k % 3 == 2:
            # doubled and antisymmetric, as certify builds them: each of the
            # first half's x has a twin with its outcomes swapped (mirror ties)
            half = shape[0] // 2
            M[half : 2 * half] = M[:half, :, ::-1]
        return M

    @pytest.mark.parametrize("d, n_x, n_y, calls", SHAPES + ABOVE_N_X_SHAPES)
    def test_encoding_route_matches_the_reference(self, d, n_x, n_y, calls):
        rng = np.random.default_rng(1000 * d + 10 * n_x + n_y)
        for k in range(calls):
            M = self._coefficients(rng, (n_x, n_y, 2), k)
            strategy, value = pm_lmo(M, d)
            ref_strategy, ref_value = _reference_pm_lmo(M, d)
            assert strategy == ref_strategy
            assert value == ref_value
            _assert_python_ints(strategy)
            _assert_row_is_the_vector(strategy)

    def test_a_thousand_messages_return_a_thousand_rows_of_g(self):
        M = np.array([[[1.0, -2.0]], [[3.0, 0.0]]])
        strategy, value = pm_lmo(M, 1000)
        assert len(strategy.g) == 1000 and value == pm_lmo(M, 2)[1] == 4.0

    @pytest.mark.parametrize("d, n_x, n_y, calls", RESPONSE_SHAPES)
    def test_response_route_matches_the_reference(self, d, n_x, n_y, calls):
        rng = np.random.default_rng(2000 * d + 10 * n_x + n_y)
        for k in range(calls):
            M = self._coefficients(rng, (n_x, n_y, 2), k)
            strategy, value = polytope._pm_lmo_over_responses(M, d)
            assert (strategy, value) == _reference_pm_lmo_over_responses(M, d)
            _assert_python_ints(strategy)
            _assert_row_is_the_vector(strategy)


class TestBarycentricStart:
    @pytest.mark.parametrize(
        "poly, corral",
        [
            (BellPolytope(2, 2), list(enumerate_sign_assignments(2, 2))[:3]),
            (PMPolytope(2, 3, 2), list(enumerate_pm_strategies(2, 3, 2))[5:9]),
        ],
    )
    def test_no_iteration_reports_the_distance_to_the_start_mean(self, poly, corral):
        point = np.full(poly.point_shape, 2.0)
        mean = np.mean([poly.vertex(s) for s in corral], axis=0)
        verdict = fw_membership(point, poly, start=corral, max_iter=0)
        assert verdict.iterations == 0
        expected = float(np.linalg.norm(point.ravel() - mean))
        assert verdict.distance_upper == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("poly, corral", SQUARE_FACES)
    def test_square_face_corral_takes_the_null_step(self, poly, corral, monkeypatch):
        dependent = []
        border = polytope._Corral.border

        def recording_border(self, i):
            q = border(self, i)
            if q is not None:
                dependent.append(len(self.support) + 1)
            return q

        monkeypatch.setattr(polytope._Corral, "border", recording_border)
        rows = np.array([poly.vertex(s) for s in corral])
        point = np.array([0.0, 0.25, 0.5, 0.25]) @ rows
        verdict = fw_membership(point, poly, start=corral)
        assert dependent and dependent[0] == 4  # the whole start was dependent
        assert verdict.is_inside and verdict.reconstruction_error < 1e-12


@pytest.fixture
def fresh_solve_check(monkeypatch):
    """Check every affine step of every corral against a fresh solve on its support.

    The corral updates its factor as rows enter and leave; _affine_weights
    forms and solves the same support's system from scratch.  Their weights
    must agree to 1e-12, widened by the fresh solve's own forward error
    bound cond(A_S) eps max|u| where A_S is ill-conditioned.  After every
    factor, border and drop, F must be an exact s x s C-contiguous array (a
    refused factor leaves the support to enter row by row).  Returns the
    list of support sizes checked.
    """
    affine = polytope._Corral.affine
    checked = []

    def contiguous_factor(method):
        def checked_method(corral, *args):
            out = method(corral, *args)
            if out is not False:
                assert corral.F.flags.c_contiguous and corral.F.shape == (corral.s, corral.s)
            return out

        return checked_method

    for name in ("factor", "border", "drop"):
        monkeypatch.setattr(
            polytope._Corral, name, contiguous_factor(getattr(polytope._Corral, name))
        )

    def affine_checked(corral):
        u = affine(corral)
        rows = corral.V[corral.support]
        fresh = polytope._affine_weights(rows, corral.p)
        R = rows - corral.p
        slack = np.linalg.cond(R @ R.T + 1.0) * np.finfo(float).eps * np.max(np.abs(u))
        assert np.max(np.abs(u - fresh)) <= 1e-12 + slack
        checked.append(len(u))
        return u

    monkeypatch.setattr(polytope._Corral, "affine", affine_checked)
    return checked


class TestPersistentCorral:
    """The updated corral against a fresh factorisation of its support."""

    def test_cold_and_warm_runs(self, fresh_solve_check):
        rng = np.random.default_rng(30)
        poly = PMPolytope(2, 6, 3)
        for _ in range(6):
            e = Ensemble(tuple(QubitState.pure(v) for v in rng.normal(size=(6, 3))))
            point = pm_behavior(e, pauli_set("xyz", rng.uniform(0.6, 1.0))).data
            cold = fw_membership(point, poly)
            moved = point + rng.normal(scale=0.02, size=point.shape)
            warm = fw_membership(moved, poly, start=cold.strategies)
            assert warm.status == fw_membership(moved, poly).status
        assert len(fresh_solve_check) > 100 and max(fresh_solve_check) > 10

    def test_duplicated_start_row(self, fresh_solve_check, distinct_buffer):
        rng = np.random.default_rng(31)
        poly = PMPolytope(2, 3, 2)
        strategies = list(enumerate_pm_strategies(2, 3, 2))
        for _ in range(10):
            picked = [strategies[i] for i in rng.choice(len(strategies), size=8, replace=False)]
            point = rng.dirichlet(np.ones(5)) @ np.array([s.row for s in picked[3:]])
            # the first row again, after two others: it merges into the first
            # row at twice the weight and is never buffered twice
            verdict = fw_membership(point, poly, start=picked[:3] + picked[:1])
            assert verdict.is_inside and verdict.reconstruction_error < 1e-9
        assert max(fresh_solve_check) >= 5

    def test_square_face_null_step(self, fresh_solve_check):
        # alpha = (1, 1) with all four beta spans a square face of the 2 x 2
        # Bell polytope; the point needs vertices off that face as well
        poly = BellPolytope(2, 2)
        face = [SignAssignment((1, 1), b) for b in itertools.product((1, -1), repeat=2)]
        off = [SignAssignment((1, -1), b) for b in itertools.product((1, -1), repeat=2)]
        rows = np.array([s.row for s in face + off])
        point = np.array([0.05, 0.1, 0.15, 0.2, 0.1, 0.1, 0.1, 0.2]) @ rows
        verdict = fw_membership(point.reshape(2, 2), poly, start=face)
        assert verdict.is_inside and verdict.reconstruction_error < 1e-12
        assert max(fresh_solve_check) >= 4

    def test_sixteen_setting_snub_point(self, fresh_solve_check):
        e = pauli_eigenstate_ensemble()
        a = Assemblage(snub_cube_set(1.0).measurements[:16])
        verdict = fw_membership(pm_behavior(e, a).data, PMPolytope(3, 6, 16), max_iter=4000)
        assert verdict.is_inside
        assert len(fresh_solve_check) > 300 and max(fresh_solve_check) > 90


class TestInputChecks:
    @pytest.mark.parametrize(
        "call, message",
        [(lambda: pm_lmo(np.zeros((2, 2)), 2),
          "coefficient array must have shape (n_x, n_y, 2), got (2, 2)"),
         (lambda: pm_lmo(np.zeros((2, 1, 2)), 0), "message dimension must be positive"),
         (lambda: bell_lmo(np.zeros(3)), "coefficient matrix must be 2-d, got shape (3,)"),
         (lambda: fw_membership(np.zeros(5), BellPolytope(2, 2)),
          "point has 5 entries but the oracle expects 4"),
         (lambda: brute_force_membership(np.zeros(3), np.eye(2)),
          "point dimension does not match vertex dimension")],
        ids=["pm_lmo_shape", "pm_lmo_dimension", "bell_lmo_shape", "fw_point", "brute_force_point"],
    )
    def test_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestFWArguments:
    @pytest.mark.parametrize(
        "kwargs",
        [{"eps_in": 0.0}, {"eps_in": -1e-7}, {"eps_out": -1e-7}, {"max_iter": -3},
         {"eps_in": float("nan")}, {"max_iter": 2.5}],
    )
    def test_bad_tolerance_or_budget_is_rejected(self, kwargs):
        with pytest.raises(ValueError, match="eps_in"):
            fw_membership(TSIRELSON, BellPolytope(2, 2), **kwargs)

    def test_zero_eps_out_is_legal(self):
        # on a vertex the distance is 0, which eps_in = 0 could not call inside
        vertex = SignAssignment((1, 1), (1, -1)).vector()
        assert fw_membership(vertex, BellPolytope(2, 2), eps_out=0.0).is_inside
