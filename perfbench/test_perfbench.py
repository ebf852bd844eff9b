"""Self-tests of the benchmark: its checks, its generators and its tracing.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pertwave import cauchy, invert, quadrature, ring, solutions  # noqa: E402

Q = workloads.Q


def bundle2():
    return solutions.build_phi(ring.Polynomial(2, {(1, 1): Fraction(1)}), 2)


# -- the checks flag corrupted results ----------------------------------------------


def test_residual_with_one_extra_term_is_flagged():
    res = solutions.residual(bundle2().phi, 2)
    checks.structural_zero(res, "clean")
    extra = res + ring.RhoExpr.from_polynomial(ring.Polynomial(2, {(0, 1): Fraction(1, 3)}))
    with pytest.raises(checks.CheckFailed):
        checks.structural_zero(extra, "corrupted")


def test_coefficient_off_by_1e_6_is_flagged():
    bundle = bundle2()
    x = np.array([0.2, -0.3])
    values = invert.recover_n2(invert.RayField.from_rho_expr(bundle.phi), x, Q)
    expected = [checks.eval_terms(bundle.coefficient(r).terms, x)[0] for r in range(2)]
    assert checks.relative_error(values, expected, 1e-8) < 1e-12
    corrupted = list(values)
    corrupted[1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.relative_error(corrupted, expected, 1e-8)


def test_changed_exit_code_is_flagged():
    checks.exit_status(0, {0}, "")
    checks.exit_status(4, {4}, "error: domain: bad dim\n")
    with pytest.raises(checks.ExitMismatch):
        checks.exit_status(5, {0}, "")
    with pytest.raises(checks.ExitMismatch):
        checks.exit_status(5, {4}, "error: tolerance: x\n")
    with pytest.raises(checks.CheckFailed):  # right code, but a traceback
        checks.exit_status(2, {2}, "Traceback (most recent call last):\nValueError: x\n")


def test_field_off_by_1e_7_is_flagged():
    phi = bundle2().phi
    g = cauchy.Grid2D(-0.5, 0.5, 7, 0.0, 0.3, 4)
    field = cauchy.evolve_grid(cauchy.InitialData.from_rho_expr(phi), g, Q)
    exact = workloads._exact_on_grid(checks.layers_of_expr(phi), g)
    assert checks.absolute_error(field.values, exact, 1e-8) < 1e-12
    corrupted = field.values.copy()
    corrupted[3, 2] += 1e-7
    with pytest.raises(checks.CheckFailed):
        checks.absolute_error(corrupted, exact, 1e-8)


def test_basis_and_ratio_checks_flag_wrong_results():
    good = [{(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}]
    checks.basis_elements(good, 2, 1)
    with pytest.raises(checks.CheckFailed):
        checks.basis_elements([{(2, 0): Fraction(1)}, {(1, 1): Fraction(1)}], 2, 2)
    with pytest.raises(checks.CheckFailed):
        checks.basis_elements(good[:1], 2, 1)
    checks.convergence_ratios([1.0, 0.25, 0.0625])
    with pytest.raises(checks.CheckFailed):
        checks.convergence_ratios([1.0, 0.5, 0.25])  # first order, not second


def test_independent_evaluator_matches_the_ring():
    phi = bundle2().phi
    pts = np.array([[0.1, 0.4], [-0.3, 0.2]])
    assert np.allclose(checks.eval_layers(checks.layers_of_expr(phi), pts),
                       phi.eval_points(pts), rtol=1e-14, atol=0)
    assert [checks.basis_size(n, 6) for n in (2, 4, 6, 8)] == [2, 49, 336, 1386]


# -- the seeded generators ------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_seed_dependent(name, tmp_path):
    def inputs(seed):
        return json.dumps(workloads.make(name, seed, str(tmp_path)).describe(6))

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


def test_exact_sweep_prefix_keeps_population_shares():
    wl = workloads.ExactSweep(5)
    classes = {(n, k, i): c for c, (n, k, members) in enumerate(wl._classes) for i in members}
    total = sum(checks.basis_size(n, k) for n in wl.DIMS for k in range(wl.MAX_DEGREE + 1))
    assert len(classes) == total == 3375
    for prefix in (100, 500):
        drawn = Counter(classes[item] for item in wl.describe(prefix))
        for c, (_, _, members) in enumerate(wl._classes):
            assert abs(drawn[c] - prefix * len(members) / total) <= 1.0


# -- tracing ------------------------------------------------------------------------


def test_tracing_covers_aliases_and_is_undone():
    original = quadrature.adaptive_gauss
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert cauchy.adaptive_gauss is quadrature.adaptive_gauss is invert.adaptive_gauss
        assert quadrature.adaptive_gauss.__wrapped__ is original
        invert.recover_n2(invert.RayField.from_rho_expr(bundle2().phi), np.array([0.2, 0.1]), Q)
    finally:
        tracing.uninstall(undo)
    assert quadrature.adaptive_gauss is original and cauchy.adaptive_gauss is original
    assert tracer.calls["invert.recover_n2"] == 1
    assert tracer.calls["invert.h_shift_inverse"] == 1
    assert tracer.calls["quadrature.adaptive_gauss"] == 1
    assert tracer.counts["quadrature.adaptive_gauss.panels"] >= 1
    spans = {s[1]: s for s in tracer.spans}
    assert spans["quadrature.adaptive_gauss"][4] == spans["invert.h_shift_inverse"][0]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["invert.recover_n2.self_s"][0] <= sum(s[3] - s[2] for s in tracer.spans
                                                         if s[1] == "invert.recover_n2")


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
