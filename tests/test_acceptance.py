"""End-to-end acceptance battery.

Each test covers one release criterion at its stated tolerance and is tagged
with a label echoed as a pass/fail line in the terminal summary.
"""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoflat import cli, modelio
from thermoflat.convex import GridSampled, LinearShift, Quadratic, biconjugate
from thermoflat.linearizer import ModelSpec, solve_flat, solve_game
from thermoflat.measures import (
    AprioriAlphabet,
    CylinderPotential,
    MarkovMeasure,
    MixtureMeasure,
    entropy_rate,
)
from thermoflat.oracle import bkl_pressure, direct_pressure
from thermoflat.ruelle import (
    entropy_of_gibbs,
    linear_pressure,
    rpf_solve,
)
from thermoflat.transport import (
    DiscreteDualMeasure,
    affine_pressure_flat,
    birkhoff_sampling,
    cost_matrix,
    delta_functional,
    delta_via_birkhoff,
    kantorovich_dual_check,
    kantorovich_primal,
)

A2 = AprioriAlphabet(2)
SPIN = CylinderPotential(A2, [1.0, -1.0], name="spin")


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn

    return mark


def cw_model(beta):
    return ModelSpec(A2, plus_potentials=[SPIN], g_plus=Quadratic(beta))


def cw_root(beta):
    return brentq(lambda y: y - beta * math.tanh(y), 1e-8, beta, xtol=1e-14)


def regression_suite():
    ising2 = CylinderPotential(
        A2, [[1.0, -1.0], [-1.0, 1.0]], name="nn-ising"
    )
    return [
        ("subcritical cw", cw_model(0.5)),
        ("supercritical cw", cw_model(2.0)),
        (
            "cw with external field",
            ModelSpec(A2, [SPIN], g_plus=LinearShift(np.array([0.3]), Quadratic(2.0))),
        ),
        (
            "attraction plus repulsion",
            ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0)),
        ),
        (
            "memory-2 ising type",
            ModelSpec(A2, [ising2], g_plus=Quadratic(1.2)),
        ),
    ]


@criterion("criterion 01 linear pressure closed form")
def test_criterion_1_linear_pressure():
    assert abs(linear_pressure(SPIN) - math.log(math.cosh(1.0))) < 1e-10
    zero = CylinderPotential.zero(A2)
    assert abs(linear_pressure(zero)) < 1e-12


@criterion("criterion 02 entropy duality on randomized memory-2 suite")
def test_criterion_2_entropy_duality():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 4))
        w = np.clip(rng.dirichlet(np.ones(k) * 3.0), 0.05, None)
        alphabet = AprioriAlphabet(k, w / w.sum())
        phi = CylinderPotential(alphabet, rng.normal(scale=1.5, size=(k, k)))
        rpf = rpf_solve(phi)
        worst = max(
            worst, abs(entropy_of_gibbs(rpf, phi) - entropy_rate(rpf.gibbs))
        )
    assert worst < 1e-8


@criterion("criterion 03 bogoliubov exactness against oracles")
def test_criterion_3_bogoliubov_exactness():
    for name, model in regression_suite():
        sol = solve_flat(model)
        direct, _ = direct_pressure(model)
        bkl, _ = bkl_pressure(model)
        assert abs(sol.p_flat - direct) < 1e-5, name
        assert abs(sol.p_flat - bkl) < 1e-4, name


@criterion("criterion 04 curie-weiss phase structure")
def test_criterion_4_phase_structure():
    for beta in (0.5, 0.9):
        sol = solve_flat(cw_model(beta))
        assert len(sol.m_flat) == 1
        assert abs(sol.m_flat[0].coords[0]) < 1e-6
    for beta in (1.5, 2.0):
        sol = solve_flat(cw_model(beta))
        ystar = cw_root(beta)
        assert len(sol.m_flat) == 2
        coords = sorted(x.coords[0] for x in sol.m_flat)
        assert abs(coords[0] + ystar) < 1e-6
        assert abs(coords[1] - ystar) < 1e-6
        for e in sol.equilibria:
            assert e.residual_plus < 1e-6
            assert e.residual_minus < 1e-6


@criterion("criterion 05 weak duality and decoupling")
def test_criterion_5_weak_duality():
    models = [m for _, m in regression_suite()]
    for model in models:
        sol = solve_game(model)
        assert sol.gap >= -1e-8
    zero = CylinderPotential.zero(A2)
    decoupled = ModelSpec(A2, [SPIN], [zero], Quadratic(2.0), Quadratic(1.0))
    sol = solve_game(decoupled)
    assert abs(sol.p_sharp - sol.p_flat) < 1e-8


@criterion("criterion 06 fenchel suite")
def test_criterion_6_fenchel():
    rng = np.random.default_rng(101)
    g = Quadratic(2.0)
    for _ in range(200):
        x, y = rng.normal(scale=3.0, size=2)
        lhs = g.value(np.array([x])) + g.conjugate(np.array([y]))
        assert lhs >= x * y - 1e-9
        ygrad = 2.0 * x
        eq = g.value(np.array([x])) + g.conjugate(np.array([ygrad]))
        assert abs(eq - x * ygrad) < 1e-9
    for beta in (0.5, 1.0, 2.0, 5.0):
        q = Quadratic(beta)
        for y in rng.normal(scale=2.0, size=20):
            assert abs(q.conjugate(np.array([y])) - y * y / (2 * beta)) < 1e-12
    grid = np.linspace(-4, 4, 161)
    gs = GridSampled([grid], grid**2)
    primal = [np.linspace(-4, 4, 161)]
    dual = [np.linspace(-8, 8, 321)]
    bc = biconjugate(gs, primal, dual)
    bc2 = biconjugate(bc, primal, dual)
    xs = np.linspace(-3.5, 3.5, 41)
    for x in xs:
        assert abs(bc.value(np.array([x])) - bc2.value(np.array([x]))) < 1e-12


@criterion("criterion 07 delta-functional laws")
def test_criterion_7_delta_laws():
    m = cw_model(2.0)
    mu1 = MarkovMeasure.product(A2, [0.9, 0.1])
    mu2 = MarkovMeasure.product(A2, [0.2, 0.8])
    mix = MixtureMeasure([(0.4, mu1), (0.6, mu2)])
    delta = delta_functional(m, mix, m.g_plus.value, side="plus")
    assert delta >= m.g_plus.value(m.tau_plus(mix)) - 1e-12

    uniform = MarkovMeasure.product(A2, [0.5, 0.5])
    square = lambda z: float(np.asarray(z).ravel()[0] ** 2)  # noqa: E731
    vals = [delta_via_birkhoff([SPIN], uniform, square, n) for n in (2, 4, 6, 8)]
    assert vals[0] == pytest.approx(0.5, abs=1e-12)
    assert vals[1] == pytest.approx(0.25, abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    sol = solve_flat(m)
    nu1, nu2 = (e.measure for e in sol.equilibria)
    mix2 = MixtureMeasure([(0.3, nu1), (0.7, nu2)])
    lhs = affine_pressure_flat(m, mix2)
    rhs = 0.3 * m.direct_pressure_of(nu1) + 0.7 * m.direct_pressure_of(nu2)
    assert abs(lhs - rhs) < 1e-12


@criterion("criterion 08 kantorovich identity")
def test_criterion_8_kantorovich():
    model = ModelSpec(A2, [SPIN], [SPIN], Quadratic(3.0), Quadratic(1.0))
    sol = solve_flat(model)
    pairs = [(e.x_plus, e.x_minus) for e in sol.equilibria]
    n = len(pairs)
    rows = DiscreteDualMeasure(tuple(p for p, _ in pairs), (1.0 / n,) * n)
    cols = DiscreteDualMeasure(tuple(q for _, q in pairs), (1.0 / n,) * n)
    cost = cost_matrix(model, rows.points, cols.points)
    value, _ = kantorovich_primal(cost, rows, cols)
    assert abs(value - sol.p_flat) < 1e-8
    check = kantorovich_dual_check(cost, rows, cols, value, p_flat=sol.p_flat)
    assert check["feasible"]
    assert check["weak_duality"]
    assert abs(check["gap"]) < 1e-8


@criterion("criterion 09 birkhoff order-parameter concentration")
def test_criterion_9_birkhoff_concentration():
    m = cw_model(2.0)
    sol = solve_flat(m)
    pos = max(sol.equilibria, key=lambda e: e.x_plus[0])
    ystar = pos.x_plus[0]
    out = birkhoff_sampling(m, pos.measure, n=1000, num_samples=5000, seed=42)
    xs = out["plus"][:, 0]
    se = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - ystar) < 4 * se
    variances = []
    for n in (250, 500, 1000, 2000):
        v = birkhoff_sampling(m, pos.measure, n=n, num_samples=5000, seed=42)
        variances.append(v["plus"][:, 0].var(ddof=1))
    assert all(a > b for a, b in zip(variances, variances[1:]))


@criterion("criterion 10 determinism and round trip")
def test_criterion_10_determinism(tmp_path):
    doc = {
        "schema": "thermoflat/1",
        "alphabet": {"k": 2, "m": [0.5, 0.5]},
        "plus": {
            "potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
            "g": {"kind": "quadratic", "beta": 2.0, "dim": 1},
        },
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.main(["solve", str(path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    parsed = json.loads(outs[0])
    assert modelio.dumps_report(parsed).encode() == outs[0]
    model, raw = modelio.load_model(str(path))
    assert modelio.parse_model(modelio.serialize_model(model)).alphabet == model.alphabet
