"""Self-tests of the benchmark: every check passes on the program's real
output and fails once a checked value is perturbed; the tracer sees calls
through every binding site and leaves the package as it found it.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import copy

import numpy as np
import pytest

import thermoflat as tf
import thermoflat.cli
import thermoflat.modelio
import thermoflat.transport  # noqa: F401

import tracing
import truth
from workloads import WORKLOADS

# Paths into each op's output that its check must guard, perturbed one at a
# time.  Faulty ops raise today; their checks are exercised on made-up
# outputs that carry the true values (see test_fault_checks).
GUARDED = {
    "cw_subcritical": [("p_flat",), ("m_flat", 0, 0),
                       ("equilibria", 0, "residual_plus")],
    "cw_supercritical": [("p_flat",), ("m_flat", 1, 0),
                         ("equilibria", 0, "residual_plus")],
    "cw_field": [("p_flat",), ("m_flat", 0, 0), ("equilibria", 0, "p_value")],
    "two_sided_game": [("p_flat",), ("p_sharp",), ("gap",),
                       ("equilibria", 0, "residual_minus")],
    "k3_quadratic2": [("p_flat",), ("m_flat", 0, 1),
                      ("equilibria", 0, "residual_plus")],
    "k3_grid2": [("p_flat",), ("m_flat", 0, 0)],
    "solve_k2_m2_dim2": [("p_flat",), ("m_flat", 0, 0)],
    "solve_k3_m3_dim9": [("p_flat",), ("m_flat", 0, 0)],
    "solve_k3_m4_dim27": [("p_flat",), ("equilibria", 0, "residual_plus")],
    "solve_k4_m4_dim64": [("p_flat",), ("m_flat", 0, 0)],
    "p_flat_of_sweep": [("values", 0), ("values", 4)],
    "oracle_memory1": [("p_flat",), ("direct",), ("bkl",), ("max_abs_diff",)],
    "oracle_memory2": [("p_flat",), ("direct",), ("bkl",)],
    "transport_10x10": [("value",), ("coupling", 0, 0), ("p_flat",),
                        ("dual_check", "min_slack")],
    "delta_birkhoff": [(0, "entropy"), (1, "delta_plus"), (0, "f_flat"),
                       (0, "delta_plus_birkhoff_n"), (1, "delta_plus_birkhoff_n")],
    "pressure_memory34": [("potentials", 0, "p_l"), ("potentials", 1, "p_l"),
                          ("potentials", 1, "gibbs_entropy"),
                          ("potentials", 0, "normalization_residual"),
                          ("potentials", 1, "eigenmeasure", 0)],
    "report_memory1": [("game", "p_flat"), ("game", "gap"),
                       ("oracle", "bkl"), ("pressure", "potentials", 0, "p_l")],
    "birkhoff_sampling": [("mean",)],
}


# Perturbation sizes where 1e-3 could stay inside a check's tolerance: the
# sample mean is allowed 4 standard errors (about 1e-3).
DELTAS = {"birkhoff_sampling": 1e-2}


def perturbed(out, path, delta):
    out = copy.deepcopy(out)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real pass of every non-faulty op of every workload, seed 0."""
    workdir = str(tmp_path_factory.mktemp("work"))
    result = {}
    for build in WORKLOADS.values():
        for op in build(tf, 0, workdir).ops:
            if not op.fault:
                result[op.name] = (op, op.run())
    return result


def test_every_op_is_guarded(outputs):
    assert sorted(outputs) == sorted(GUARDED)


@pytest.mark.parametrize("name", sorted(GUARDED))
def test_check_passes_then_catches_perturbation(outputs, name):
    op, out = outputs[name]
    assert op.check(out) == []
    for path in GUARDED[name]:
        size = DELTAS.get(name, 1e-3)
        for delta in (size, -size):
            assert op.check(perturbed(out, path, delta)), (name, path, delta)


def test_fault_checks(tmp_path):
    """The checks that apply once the two faults are fixed accept the true
    optimum and reject a perturbed one."""
    ops = {op.name: op for build in WORKLOADS.values()
           for op in build(tf, 0, str(tmp_path)).ops if op.fault}
    assert sorted(ops) == ["abs_sum_kink", "k3_memory3_spectral_gap"]

    def solution(p_flat, x):
        return {"p_flat": p_flat, "p_sharp": None, "gap": None, "m_flat": [[x]],
                "equilibria": [{"x_plus": [x], "x_minus": [x], "residual_plus": 0.0,
                                "residual_minus": 0.0, "p_value": p_flat}]}

    table = np.random.default_rng(2).standard_normal((3, 3, 3))
    weights = np.full(3, 1.0 / 3.0)
    p, args = truth.sup_1d(lambda y: truth.linear_pressure(weights, y * table)
                           - y * y / 6.0, -2 * 3.0 * np.abs(table).max() - 1,
                           2 * 3.0 * np.abs(table).max() + 1)
    cases = {"abs_sum_kink": (0.0, 0.0), "k3_memory3_spectral_gap": (p, args[0])}
    for name, (value, x) in cases.items():
        assert ops[name].check(solution(value, x)) == [], name
        assert ops[name].check(solution(value + 1e-4, x)), name


def test_tracer_sees_every_binding_site():
    originals = {
        "linearizer.rpf_solve": tf.linearizer.rpf_solve,
        "ruelle.rpf_solve": tf.ruelle.rpf_solve,
        "package.solve_flat": tf.solve_flat,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        a2 = tf.AprioriAlphabet(2)
        spin = tf.CylinderPotential(a2, [1.0, -1.0])
        tf.solve_flat(tf.ModelSpec(a2, [spin], g_plus=tf.Quadratic(2.0)))
    finally:
        tracer.uninstall()
    snap = {name: value for name, (value, _) in tracer.snapshot().items()}
    # the two Curie-Weiss maximizers each get one Gibbs measure, built by
    # linearizer's own `rpf_solve` binding
    assert snap["ruelle.rpf_solve.calls"] == 2
    assert snap["linearizer.admitted_per_candidate"] == 1.0
    assert snap["linearizer.pressure_evals"] == snap["linearizer.p_nl.calls"] > 0
    assert snap["convex.growth_radius.calls"] == 1
    assert tf.linearizer.rpf_solve is originals["linearizer.rpf_solve"]
    assert tf.ruelle.rpf_solve is originals["ruelle.rpf_solve"]
    assert tf.solve_flat is originals["package.solve_flat"]
