"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``; the test name
carries the criterion number either way). Exact equality means Fraction
equality; runtimes are asserted against the stated budgets.
"""

import json
import random
import time
from fractions import Fraction as F

from otlab import (
    TransportPlan,
    as_matrix,
    as_vector,
    c_transform,
    cbar_transform,
    check_cyclic_monotonicity,
    check_slackness,
    convert_instance,
    dual_value,
    duality_gap,
    envelope_schedule,
    induced_pseudometric,
    is_c_concave,
    lipschitz_envelope,
    make_instance,
    normalize_pair,
    oracle_primal,
    saturation_index,
    solve_dual,
    solve_primal,
)
from otlab.cli import main as cli_main
from otlab.ctransform import OVER_X, OVER_Y

from conftest import random_marginal, random_potential, random_rational_instance

_CORPUS = None


def corpus():
    """200 seeded random rational instances with |X|, |Y| in 1..4."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(987654321)
        _CORPUS = [random_rational_instance(rng, 1, 4) for _ in range(200)]
    return _CORPUS


_SOLVED = None


def solved_corpus():
    global _SOLVED
    if _SOLVED is None:
        _SOLVED = [(inst, solve_primal(inst), solve_dual(inst)) for inst in corpus()]
    return _SOLVED


def test_criterion_1_strong_duality_exact_on_200_instances():
    start = time.monotonic()
    for inst, res, pot in solved_corpus():
        oracle_value = oracle_primal(inst).value
        primal_value = res.value
        dual_val = dual_value(pot, inst.mu, inst.nu)
        assert primal_value == oracle_value
        assert dual_val == primal_value
        assert pot.is_feasible_for(inst.cost)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"
    print(f"PASS criterion 1: strong duality exact on 200 instances ({elapsed:.1f}s)")


def test_criterion_2_oracle_equivalence_at_scale_edge():
    rng = random.Random(24680)
    start = time.monotonic()
    for _ in range(50):
        inst = random_rational_instance(rng, 5, 6)
        assert solve_primal(inst).value == oracle_primal(inst, budget=36).value
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"criterion 2 runtime {elapsed:.1f}s exceeds 300s"
    print(f"PASS criterion 2: 50 instances at |X|,|Y| in {{5,6}} exact ({elapsed:.1f}s)")


def test_criterion_3_transform_calculus_500_pairs():
    rng = random.Random(13579)
    violations = 0
    for _ in range(500):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        inst = make_instance(
            [[F(rng.randint(0, 16), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)],
            random_marginal(rng, m),
            random_marginal(rng, n),
        )
        phi = as_vector(random_potential(rng, m), "rational")
        psi = c_transform(phi, inst.cost)
        phi_cc = cbar_transform(psi, inst.cost)
        d_y = induced_pseudometric(inst.cost, OVER_Y)
        d_x = induced_pseudometric(inst.cost, OVER_X)
        norm = inst.cost.sup_norm()
        pair = normalize_pair(phi, inst.cost)

        if any(abs(psi[j] - psi[l]) > d_y[j, l] for j in range(n) for l in range(n)):
            violations += 1
        if any(abs(phi_cc[i] - phi_cc[k]) > d_x[i, k] for i in range(m) for k in range(m)):
            violations += 1
        if any(not (0 <= v <= 2 * norm) for v in pair.psi):
            violations += 1
        if any(not (-3 * norm <= v <= norm) for v in pair.phi):
            violations += 1
        if any(phi_cc[i] < phi[i] for i in range(m)):
            violations += 1
        if list(c_transform(phi_cc, inst.cost)) != list(psi):
            violations += 1
    assert violations == 0
    print("PASS criterion 3: transform calculus clean on 500 random (cost, phi) pairs")


def test_criterion_4_canonical_dual_form():
    for inst, _, pot in solved_corpus():
        assert is_c_concave(pot.phi, inst.cost)
        transformed = c_transform(pot.phi, inst.cost)
        diffs = {transformed[j] - pot.psi[j] for j in range(inst.shape[1])}
        assert len(diffs) == 1
    print("PASS criterion 4: every dual solution is c-concave with psi a shift of phi^c")


def test_criterion_5_certificates_on_optimal_pairs():
    for inst, res, pot in solved_corpus():
        assert duality_gap(res.plan, pot, inst) == 0
        assert check_slackness(res.plan, pot, inst.cost) == ()
        report = check_cyclic_monotonicity(res.plan, inst.cost, k_max=4)
        assert all(v is None for v in report.values())
    # the constructed counterexample fails at k = 2 as specified
    anti_inst = make_instance([[0, 2], [2, 0]], [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)])
    anti = TransportPlan(as_matrix([[0, F(1, 2)], [F(1, 2), 0]], "rational"))
    violation = check_cyclic_monotonicity(anti, anti_inst.cost, k_max=2)[2]
    assert violation is not None and violation.baseline == 4 and violation.permuted == 0
    print("PASS criterion 5: slackness empty and cyclic monotonicity holds on all optimal pairs")


def test_criterion_6_envelope_laws_and_fixtures():
    rng = random.Random(555)
    for _ in range(100):
        inst = random_rational_instance(rng, 2, 4, with_metrics=True)
        dx, dy = inst.space_x.metric, inst.space_y.metric
        m, n = inst.shape
        n_star = saturation_index(inst.cost, dx, dy)
        levels = sorted({F(1, 2), max(F(1), n_star / 2), n_star + 1})
        previous = None
        for level in levels:
            env = lipschitz_envelope(inst.cost, dx, dy, level)
            for i in range(m):
                for j in range(n):
                    v = env.entries[i, j]
                    assert 0 <= v <= min(inst.cost.entries[i, j], level)
                    for k in range(m):
                        for l in range(n):
                            assert abs(v - env.entries[k, l]) <= level * (dx[i, k] + dy[j, l])
            if previous is not None:
                assert all(
                    previous.entries[i, j] <= env.entries[i, j]
                    for i in range(m) for j in range(n)
                )
            previous = env
        schedule_levels = sorted({max(n_star / 2, F(1, 4)), n_star if n_star > 0 else F(1)})
        sched = envelope_schedule(inst, schedule_levels)
        values = [lv.value for lv in sched.levels]
        assert values == sorted(values)
        assert all(v <= sched.limit_value for v in values)
        if n_star > 0:
            assert {lv.n: lv.value for lv in sched.levels}[n_star] == sched.limit_value

    # the two hand-derived spike fixtures
    spike = make_instance(
        [[0, 10], [10, 0]], [F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)],
        metric_x=[[0, 1], [1, 0]], metric_y=[[0, 1], [1, 0]],
    )
    sched = envelope_schedule(spike, [1, 2, 5, 10])
    assert [lv.value for lv in sched.levels] == [0, 0, 0, 0]
    assert sched.limit_value == 0
    forced = make_instance(
        [[0, 10], [10, 0]], [1, 0], [0, 1],
        metric_x=[[0, 1], [1, 0]], metric_y=[[0, 1], [1, 0]],
    )
    sched = envelope_schedule(forced, [1, 2, 5, 10])
    assert [lv.value for lv in sched.levels] == [1, 2, 5, 10]
    assert sched.limit_value == 10
    print("PASS criterion 6: envelope laws exact on 100 metric instances; fixtures reproduce")


def test_criterion_7_float_rational_agreement():
    worst = 0.0
    for inst, res, pot in solved_corpus():
        finst = convert_instance(inst, "float")
        fvalue = solve_primal(finst).value
        fdual = dual_value(solve_dual(finst), finst.mu, finst.nu)
        exact = float(res.value)
        rel = max(abs(fvalue - exact), abs(fdual - exact)) / (1 + abs(exact))
        worst = max(worst, rel)
        assert rel <= 1e-9
    print(f"PASS criterion 7: float mode within 1e-9 relative (worst {worst:.2e})")


def test_criterion_8_cli_round_trip_and_golden_stability(tmp_path, capsys):
    def run(args):
        code = cli_main(args)
        out = capsys.readouterr().out
        assert code == 0
        return out

    outputs = []
    for attempt in range(2):
        inst_path = tmp_path / f"inst{attempt}.json"
        run(["gen", "random-uniform", "--size", "3", "--seed", "42", "-o", str(inst_path)])
        solve_out = run(["solve", "--dual", str(inst_path)])
        certify_out = run(["certify", str(inst_path)])
        envelope_out = run(["envelope", "--levels", "1,3,9", str(inst_path)])
        outputs.append((inst_path.read_bytes(), solve_out, certify_out, envelope_out))
    assert outputs[0] == outputs[1], "CLI output must be byte-identical across runs"
    cert = json.loads(outputs[0][2])
    assert cert["verdict"] == "pass"
    assert cert["gap"] == "0/1"
    solved = json.loads(outputs[0][1])
    assert solved["value"] == solved["dual_value"]
    print("PASS criterion 8: CLI round-trip deterministic; golden certificate stable")
