"""Lipschitz envelope: formula, sandwich/monotone/Lipschitz laws, the value
chain, and exact saturation."""

import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otlab import (
    BadNumber,
    DimensionMismatch,
    EnvelopeLawViolation,
    InfeasibleInput,
    InfiniteCostInBoundedMode,
    MetricViolation,
    MissingMetric,
    OTLabError,
    OVER_X,
    OVER_Y,
    envelope,
    envelope_schedule,
    lipschitz_envelope,
    make_instance,
    convert_instance,
    generate_fixture,
    induced_pseudometric,
    saturation_index,
    solve_primal,
)
from otlab.core import INF, CostMatrix, as_matrix, cost_tolerance, frozen_array, is_inf, zero

from conftest import random_rational_instance

HALF = [F(1, 2), F(1, 2)]
DISCRETE = [[0, 1], [1, 0]]


def spike_instance(mu=HALF, nu=HALF):
    return make_instance(
        [[0, 10], [10, 0]], mu, nu, metric_x=DISCRETE, metric_y=DISCRETE
    )


def metrics(inst):
    return inst.space_x.metric, inst.space_y.metric


# --- lipschitz_envelope --------------------------------------------------------


def test_envelope_spike_level_two():
    inst = spike_instance()
    dx, dy = metrics(inst)
    out = lipschitz_envelope(inst.cost, dx, dy, 2)
    assert out.entries.tolist() == [[0, 2], [2, 0]]


def test_envelope_recovers_cost_at_high_level():
    inst = spike_instance()
    dx, dy = metrics(inst)
    out = lipschitz_envelope(inst.cost, dx, dy, 10)
    assert out.entries.tolist() == inst.cost.entries.tolist()


def test_envelope_constant_cost():
    k = F(5)
    inst = make_instance([[k, k], [k, k]], HALF, HALF,
                         metric_x=DISCRETE, metric_y=DISCRETE)
    dx, dy = metrics(inst)
    assert lipschitz_envelope(inst.cost, dx, dy, 7).entries.tolist() == [[k, k], [k, k]]
    n = F(3)
    assert lipschitz_envelope(inst.cost, dx, dy, n).entries.tolist() == [[n, n], [n, n]]


def test_envelope_truncates_infinite_costs():
    inst = make_instance([[0, "inf"], ["inf", 0]], HALF, HALF,
                         metric_x=DISCRETE, metric_y=DISCRETE)
    dx, dy = metrics(inst)
    out = lipschitz_envelope(inst.cost, dx, dy, 3)
    assert out.is_bounded
    assert out.entries.tolist() == [[0, 3], [3, 0]]


def test_envelope_rejects_negative_cost():
    inst = make_instance([[0, -1], [1, 0]], HALF, HALF,
                         metric_x=DISCRETE, metric_y=DISCRETE)
    dx, dy = metrics(inst)
    with pytest.raises(InfeasibleInput):
        lipschitz_envelope(inst.cost, dx, dy, 2)


def direct_envelope(cost, dx, dy, n):
    """The defining formula cell by cell, in O(|X|^2 |Y|^2): the reference
    for the two min-plus products of lipschitz_envelope, with 0 * inf = 0."""
    c = cost.entries
    m, p = cost.shape
    trunc = [[n if is_inf(c[k, l]) or c[k, l] > n else c[k, l] for l in range(p)]
             for k in range(m)]

    def times(d):
        return n * d if n else n

    out = [[None] * p for _ in range(m)]
    for i in range(m):
        for j in range(p):
            best = None
            for k in range(m):
                move_x = times(dx[i, k])
                for l in range(p):
                    v = trunc[k][l] + move_x + times(dy[j, l])
                    if best is None or v < best:
                        best = v
            out[i][j] = best
    return out


@st.composite
def walled_metric_instances(draw):
    """Rational instances with line (pseudo)metrics, zero distances and
    +inf cells included; a metric may put its points on two lines, joined
    by +inf distances."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    frac = st.builds(F, st.integers(0, 30), st.sampled_from([1, 2, 3, 7]))
    cell = st.one_of(frac, frac, st.just("inf"))
    cost = [[draw(cell) for _ in range(n)] for _ in range(m)]

    def line_metric(size):
        points = [F(0)]
        for _ in range(size - 1):
            points.append(points[-1] + draw(st.sampled_from([0, F(1, 2), 1, 3])))
        lines = [draw(st.integers(0, 1)) for _ in range(size)]
        return [[abs(a - b) if u == v else "inf" for b, v in zip(points, lines)]
                for a, u in zip(points, lines)]

    return make_instance(
        cost, [F(1, m)] * m, [F(1, n)] * n,
        metric_x=line_metric(m), metric_y=line_metric(n),
    )


#: Scaled ints past the int64 guard of ``core.int_dtype``: the level
#: products run on Python ints in an object array.
HUGE = make_instance(
    [[2**70, "inf"], [F(1, 3), 2**70 + 1]], HALF, HALF,
    metric_x=[[0, "inf"], ["inf", 0]], metric_y=[[0, F(2**65, 7)], [F(2**65, 7), 0]],
)
HUGE_LEVEL = F(2**64 + 1, 5)


@settings(max_examples=60, deadline=None)
@given(
    inst=walled_metric_instances(),
    level=st.one_of(
        st.just(F(0)), st.builds(F, st.integers(1, 40), st.sampled_from([1, 2, 3, 5]))
    ),
)
@example(inst=HUGE, level=HUGE_LEVEL)
def test_envelope_equals_the_direct_formula(inst, level):
    dx, dy = metrics(inst)
    expected = direct_envelope(inst.cost, dx, dy, level)
    assert lipschitz_envelope(inst.cost, dx, dy, level).entries.tolist() == expected
    approx = convert_instance(inst, "float")
    out = lipschitz_envelope(approx.cost, *metrics(approx), float(level))
    tol = cost_tolerance(out)
    for row, exact_row in zip(out.entries.tolist(), expected):
        assert all(abs(v - float(e)) <= tol for v, e in zip(row, exact_row))


def test_a_level_past_the_int64_guard_runs_on_python_ints():
    dx, dy = metrics(HUGE)
    read = envelope._read_metrics(HUGE.cost, dx, dy)
    (out,) = envelope._level_costs(HUGE.cost, read, [HUGE_LEVEL])
    assert out.int_view[0].dtype == object
    assert out.entries.tolist() == direct_envelope(HUGE.cost, dx, dy, HUGE_LEVEL)
    ints, D = out.scaled_view
    assert [[F(v, D) for v in row] for row in ints] == out.entries.tolist()


def _check_laws(inst, levels):
    dx, dy = metrics(inst)
    m, n = inst.shape
    previous = None
    for level in levels:
        out = lipschitz_envelope(inst.cost, dx, dy, level)
        for i in range(m):
            for j in range(n):
                c_ij = inst.cost.entries[i, j]
                v = out.entries[i, j]
                assert 0 <= v
                assert v <= level or v == level  # v <= min(c, n): n side
                if not is_inf(c_ij):
                    assert v <= c_ij
                # n-Lipschitz law for the sum metric
                for k in range(m):
                    for l in range(n):
                        bound = level * (dx[i, k] + dy[j, l])
                        assert abs(v - out.entries[k, l]) <= bound
        if previous is not None:
            for i in range(m):
                for j in range(n):
                    assert previous.entries[i, j] <= out.entries[i, j]
        previous = out


def test_sandwich_monotone_lipschitz_laws(rng):
    for _ in range(10):
        inst = random_rational_instance(rng, size_hi=3, with_metrics=True)
        _check_laws(inst, [F(1, 2), F(3, 2), F(4)])


def test_envelope_idempotent_at_its_own_level(rng):
    for _ in range(10):
        inst = random_rational_instance(rng, size_hi=3, with_metrics=True)
        dx, dy = metrics(inst)
        n = F(rng.randint(1, 6), 2)
        once = lipschitz_envelope(inst.cost, dx, dy, n)
        twice = lipschitz_envelope(once, dx, dy, n)
        assert once.entries.tolist() == twice.entries.tolist()


def test_missing_metric_rejected():
    inst = make_instance([[0, 1], [1, 0]], HALF, HALF)
    with pytest.raises(MissingMetric):
        envelope_schedule(inst, [1, 2])


# --- envelope_schedule ----------------------------------------------------------


def test_schedule_free_diagonal():
    sched = envelope_schedule(spike_instance(), [1, 2, 5, 10])
    assert [lv.value for lv in sched.levels] == [0, 0, 0, 0]
    assert sched.limit_value == 0
    assert sched.saturation_level == 1


def test_schedule_forced_spike():
    sched = envelope_schedule(spike_instance(mu=[1, 0], nu=[0, 1]), [1, 2, 5, 10])
    assert [lv.value for lv in sched.levels] == [1, 2, 5, 10]
    assert sched.limit_value == 10
    assert sched.saturation_level == 10


def test_schedule_separable_saturates(rng):
    a = [F(1), F(3)]
    b = [F(0), F(2)]
    inst = make_instance(
        [[ai + bj for bj in b] for ai in a], HALF, HALF,
        metric_x=DISCRETE, metric_y=DISCRETE,
    )
    sched = envelope_schedule(inst, [1, 2, 20])
    values = [lv.value for lv in sched.levels]
    assert values == sorted(values)
    assert sched.limit_value == values[-1]
    assert sched.saturation_level is not None


def test_schedule_requires_increasing_levels():
    with pytest.raises(InfeasibleInput):
        envelope_schedule(spike_instance(), [2, 1])
    with pytest.raises(InfeasibleInput):
        envelope_schedule(spike_instance(), [])


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_level_zero_over_an_infinite_distance(mode):
    # 0 * inf = 0: at level 0 an infinite distance costs nothing, as a finite one
    cost = [[1, 2], [3, 1]]
    walled = convert_instance(make_instance(
        cost, HALF, HALF, metric_x=[[0, "inf"], ["inf", 0]], metric_y=DISCRETE), mode)
    finite = convert_instance(make_instance(
        cost, HALF, HALF, metric_x=[[0, 5], [5, 0]], metric_y=DISCRETE), mode)
    level0 = lipschitz_envelope(walled.cost, *metrics(walled), 0).entries.tolist()
    assert level0 == lipschitz_envelope(finite.cost, *metrics(finite), 0).entries.tolist()
    assert level0 == [[0, 0], [0, 0]]
    sched = envelope_schedule(walled, [0, 1, 2])
    assert [lv.value for lv in sched.levels] == [0, 1, 1]
    assert sched.limit_value == 1 and sched.saturation_level == 1


@pytest.mark.parametrize("levels, bad", [([1, INF], "inf"), ([-1, 2], "-1")])
def test_a_bad_level_is_refused_before_any_solve(primal_calls, levels, bad):
    with pytest.raises(InfeasibleInput) as err:
        envelope_schedule(spike_instance(), levels)
    assert str(err.value) == f"the level n must be finite and nonnegative, got {bad}"
    assert primal_calls == []


def test_schedule_names_a_bad_level():
    with pytest.raises(BadNumber) as err:
        envelope_schedule(spike_instance(), [1, "x"])
    assert str(err.value) == "levels[1]: bad number 'x' (Invalid literal for Fraction: 'x')"


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_envelope_names_a_bad_level(mode):
    inst = convert_instance(spike_instance(), mode)
    with pytest.raises(BadNumber) as err:
        lipschitz_envelope(inst.cost, *metrics(inst), "x")
    assert str(err.value) == "level n: bad number 'x' (Invalid literal for Fraction: 'x')"


def test_envelope_reads_the_metrics_in_the_cost_mode():
    # a float metric would otherwise reach the rational min-plus product,
    # whose only floats are +inf markers
    inst = spike_instance()
    halves = np.array([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(BadNumber, match=r"d_x\[0\]\[1\]: bad number '0.5'"):
        lipschitz_envelope(inst.cost, halves, halves, 2)
    ones = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = lipschitz_envelope(inst.cost, ones, ones, 2).entries.tolist()
    assert out == [[0, 2], [2, 0]] and type(out[0][1]) is F


@pytest.mark.parametrize("metric, error, message", [
    ([[0, 0.5], [0.5, 0]], BadNumber,
     "d_x[0][1]: bad number '0.5' (non-integral float in rational mode; "
     "pass a Fraction or 'p/q' string)"),
    ([[0, -1], [-1, 0]], MetricViolation, "d_x is not a pseudometric: negative at (0, 1)"),
    ([[0, 1], [2, 0]], MetricViolation, "d_x is not a pseudometric: asymmetry at (0, 1)"),
    ([[0, 1, 1]], DimensionMismatch, "d_x has shape (1, 3), expected (2, 2)"),
    ([[0, 1], [1]], DimensionMismatch, "d_x: rows have unequal lengths"),
    ("ab", BadNumber, "d_x: expected a list, got the string 'ab'"),
])
def test_both_public_functions_read_their_metrics_alike(metric, error, message):
    cost = make_instance([[0, 1], [1, 0]], HALF, HALF).cost
    for call in (lambda: saturation_index(cost, metric, DISCRETE),
                 lambda: lipschitz_envelope(cost, metric, DISCRETE, 2)):
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message
    with pytest.raises(MetricViolation, match=r"^d_y is not a pseudometric: negative"):
        saturation_index(cost, DISCRETE, [[0, -1], [-1, 0]])


def test_saturation_reads_string_metrics_in_the_cost_mode():
    cost = make_instance([[0, 1], [1, 0]], HALF, HALF).cost
    halves = [["0", "1/2"], ["1/2", "0"]]
    n_star = saturation_index(cost, halves, halves)
    assert n_star == 2 and type(n_star) is F
    exact = [[F(0), F(1, 2)], [F(1, 2), F(0)]]
    at = lipschitz_envelope(cost, halves, halves, n_star).entries.tolist()
    assert at == lipschitz_envelope(cost, exact, exact, n_star).entries.tolist()
    assert at == cost.entries.tolist()


def test_schedule_reads_the_instance_metrics_once(monkeypatch):
    from otlab import envelope

    calls = Counter()

    def counted(name):
        original = getattr(envelope, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("_require_nonnegative", "as_matrix", "require_pseudometric", "to_number"):
        monkeypatch.setattr(envelope, name, counted(name))
    sched = envelope_schedule(spike_instance(), [1, 2, 4, 8])
    assert [lv.value for lv in sched.levels] == [0, 0, 0, 0]
    assert calls == {"_require_nonnegative": 1}


def test_schedule_with_unreachable_limit():
    inst = make_instance([["inf", "inf"], ["inf", "inf"]], HALF, HALF,
                         metric_x=DISCRETE, metric_y=DISCRETE)
    sched = envelope_schedule(inst, [1, 4])
    assert [lv.value for lv in sched.levels] == [1, 4]
    assert is_inf(sched.limit_value)
    assert sched.saturation_level is None


def test_float_schedule_saturates_within_tolerance():
    # exact saturation at level 8; the float level-8 value lands ~4e-16
    # above the float limit value
    inst = generate_fixture("random-uniform", size=8, seed=1)
    exact = envelope_schedule(inst, [1, 2, 4, 8])
    approx = envelope_schedule(convert_instance(inst, "float"), [1, 2, 4, 8])
    assert exact.saturation_level == 8
    assert approx.saturation_level == 8.0
    for a, b in zip(approx.levels, exact.levels):
        assert abs(a.value - float(b.value)) <= 1e-12


@pytest.mark.parametrize("cost_unit, metric_unit, levels, saturation", [
    (1, 1, [1, 10**12], 10**12),
    (F(1, 10**9), F(1, 10**10), [1, 2, 4, 8, 64], 64),
])
def test_float_saturation_matches_rational_far_from_the_cost_scale(
    cost_unit, metric_unit, levels, saturation
):
    # the float slack follows ||c||, not the levels: a top level far above
    # ||c|| must not make level 1 (value ||c|| / 10 or less) pass as the limit
    d = [[0, metric_unit], [metric_unit, 0]]
    inst = make_instance(
        [[0, 5 * cost_unit], [5 * cost_unit, 0]], HALF, [1, 0], metric_x=d, metric_y=d
    )
    exact = envelope_schedule(inst, levels)
    approx = envelope_schedule(convert_instance(inst, "float"), levels)
    assert exact.saturation_level == saturation
    assert approx.saturation_level == saturation


def test_each_level_starts_from_the_previous_optimal_basis(monkeypatch):
    calls = []

    def recording(instance, basis=None):
        result = solve_primal(instance, basis=basis)
        calls.append((basis, result.basis))
        return result

    monkeypatch.setattr(envelope, "solve_primal", recording)
    inst = generate_fixture("random-uniform", size=5, seed=2)
    envelope_schedule(inst, [1, 2, 4, 8])
    assert len(calls) == 5 and calls[0][0] is None  # the limit starts cold
    assert [given for given, _ in calls[1:]] == [found for _, found in calls[:-1]]


@pytest.mark.parametrize("a, b, tol", [
    (np.array([[0, 5], [7, 1]]), np.array([[0, 4], [6, 1]]), 0),
    (np.array([[0, 2**70], [7, 1]], dtype=object), np.array([[0, 1], [6, 1]], dtype=object), 0),
    (np.array([[0.0, 1.5], [1.5, 1.0]]), np.array([[0.0, 1.0], [1.0, 1.0]]), 0.1),
])
def test_the_monotone_law_names_its_first_failing_cell(a, b, tol):
    with pytest.raises(EnvelopeLawViolation) as err:
        envelope._assert_entrywise_le(a, b, tol)
    assert str(err.value) == "envelope must be nondecreasing in n at cell (0, 1)"
    envelope._assert_entrywise_le(b, a, tol)
    envelope._assert_entrywise_le(a, a - tol, tol)


def test_schedule_law_violation_raises_library_error(monkeypatch):
    from otlab import envelope
    from otlab.primal import OptimalPlanResult

    values = iter([F(5), F(3), F(2)])  # limit, then a chain that falls
    monkeypatch.setattr(
        envelope, "solve_primal",
        lambda instance, basis=None: OptimalPlanResult(plan=None, value=next(values), basis=()),
    )
    with pytest.raises(EnvelopeLawViolation, match="nondecreasing"):
        envelope_schedule(spike_instance(), [1, 2])


# --- saturation_index -----------------------------------------------------------


def test_saturation_spike_is_ten():
    inst = spike_instance()
    dx, dy = metrics(inst)
    assert saturation_index(inst.cost, dx, dy) == 10


def test_saturation_constant_cost():
    k = F(7, 2)
    inst = make_instance([[k, k], [k, k]], HALF, HALF,
                         metric_x=DISCRETE, metric_y=DISCRETE)
    dx, dy = metrics(inst)
    assert saturation_index(inst.cost, dx, dy) == k


def test_saturation_zero_cost():
    inst = make_instance([[0, 0], [0, 0]], HALF, HALF,
                         metric_x=DISCRETE, metric_y=DISCRETE)
    dx, dy = metrics(inst)
    assert saturation_index(inst.cost, dx, dy) == 0


def test_saturation_exactness_and_bound(rng):
    for _ in range(10):
        inst = random_rational_instance(rng, size_hi=3, with_metrics=True)
        dx, dy = metrics(inst)
        n_star = saturation_index(inst.cost, dx, dy)
        # exact at n*, strictly below just under n* (when n* > 0)
        at = lipschitz_envelope(inst.cost, dx, dy, n_star)
        assert at.entries.tolist() == inst.cost.entries.tolist()
        if n_star > 0:
            below = lipschitz_envelope(inst.cost, dx, dy, n_star * F(99, 100))
            assert below.entries.tolist() != inst.cost.entries.tolist()
        # stated upper bound
        positive = [v for v in list(dx.flat) + list(dy.flat) if v > 0]
        norm = inst.cost.sup_norm()
        if positive:
            assert n_star <= max(norm / min(positive), norm)


def test_saturation_impossible_on_zero_distance_pair():
    inst = make_instance(
        [[0, 5], [5, 0]], HALF, HALF,
        metric_x=[[0, 0], [0, 0]], metric_y=DISCRETE,
    )
    dx, dy = metrics(inst)
    with pytest.raises(InfeasibleInput):
        saturation_index(inst.cost, dx, dy)


@np.errstate(invalid="ignore")  # a float 0 * inf is NaN: that source case is skipped
def reference_saturation_index(cost, dx, dy):
    """The smallest level at which every target cell (i, j) and source cell
    (k, l) satisfy min(c[k][l], n) + n D >= c[i][j], D = dx[i][k] + dy[j][l],
    by the loop over all four indices that the closed form replaced."""
    if not cost.is_bounded:
        raise InfiniteCostInBoundedMode("the saturation index requires a bounded cost")
    m, p = cost.shape
    best = zero(cost.mode)
    c = cost.entries
    for i in range(m):
        for j in range(p):
            target = c[i, j]
            for k in range(m):
                for l in range(p):
                    D = dx[i, k] + dy[j, l]
                    source = c[k, l]
                    if source * (1 + D) >= target:
                        threshold = target / (1 + D)
                    elif D > 0:
                        threshold = (target - source) / D
                    else:
                        raise InfeasibleInput("cost differs over a zero-distance pair")
                    if threshold > best:
                        best = threshold
    return best


def reference_induced_pseudometric(cost, axis):
    """max_j |c[a][j] - c[b][j]| over the rows of the measured axis, pair by pair."""
    c = cost.entries if axis == OVER_X else cost.entries.T
    k = c.shape[0]
    d = [[zero(cost.mode)] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            d[a][b] = d[b][a] = max(abs(x - y) for x, y in zip(c[a], c[b]))
    return frozen_array(d, cost.mode)


def _outcome(f, *args):
    try:
        return f(*args)
    except OTLabError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_closed_forms_match_the_loops(data):
    mode = data.draw(st.sampled_from(["rational", "float"]))
    # float data are dyadic, so the loop's sums are exact and both forms
    # round the one exact quotient alike
    dens = [1, 2, 3] if mode == "rational" else [1, 2, 4]
    number = st.builds(F, st.integers(0, 6), st.sampled_from(dens))

    def line_metric(k):
        # points on lines (equal positions: zero distance), apart from
        # other components (+inf distance)
        where = [(data.draw(st.sampled_from([0, 0, 0, 1])), data.draw(number))
                 for _ in range(k)]
        return as_matrix([[abs(a - b) if u == v else "inf" for v, b in where]
                          for u, a in where], mode)

    m, p = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        rows = [[0] * p for _ in range(m)]
    else:
        rows = [[data.draw(number) for _ in range(p)] for _ in range(m)]
    if data.draw(st.integers(0, 7)) == 0:  # unbounded: both refuse it
        rows[data.draw(st.integers(0, m - 1))][data.draw(st.integers(0, p - 1))] = "inf"
    cost = CostMatrix(as_matrix(rows, mode))
    dx, dy = line_metric(m), line_metric(p)
    got = _outcome(saturation_index, cost, dx, dy)
    want = _outcome(reference_saturation_index, cost, dx, dy)
    assert type(got) is type(want) and got == want
    # the induced forms also on a float cost of either sign, not dyadic,
    # at scales 1e-8 to 1e8
    scaled_float = st.builds(lambda x, e: x * 10.0 ** e, st.floats(-10, 10), st.integers(-8, 8))
    signed = CostMatrix(as_matrix([[data.draw(scaled_float) for _ in range(p)]
                                   for _ in range(m)], "float"))
    for bounded in [cost, signed] if cost.is_bounded else [signed]:
        for axis in (OVER_X, OVER_Y):
            got = induced_pseudometric(bounded, axis)
            want = reference_induced_pseudometric(bounded, axis)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
            assert [type(v) for v in got.flat] == [type(v) for v in want.flat]


def test_induced_pseudometric_zeros_are_positive_zeros():
    cost = CostMatrix(as_matrix([[0.5, -1.0], [0.5, -1.0]], "float"))
    assert not np.signbit(induced_pseudometric(cost, OVER_X)).any()


def test_induced_pseudometric_memory_is_that_of_one_kernel_block():
    cost = generate_fixture("random-uniform", 60, seed=1).cost
    tracemalloc.start()
    try:
        induced_pseudometric(cost, OVER_X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # a 60 x 60 x 60 pass of Fractions takes about 26 MB


def test_value_chain_meets_limit_at_saturation(rng):
    for _ in range(8):
        inst = random_rational_instance(rng, size_hi=3, with_metrics=True)
        dx, dy = metrics(inst)
        n_star = saturation_index(inst.cost, dx, dy)
        levels = sorted({max(n_star / 2, F(1, 4)), n_star + 0, n_star + 1})
        sched = envelope_schedule(inst, levels)
        assert sched.limit_value == solve_primal(inst).value
        by_level = {lv.n: lv.value for lv in sched.levels}
        assert by_level[n_star] == sched.limit_value
