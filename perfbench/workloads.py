"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload function takes the thermoflat package, a seed and a work
directory, makes every input (tables, couplings, model files) and returns
the operations one pass runs.
Each operation calls thermoflat and returns a plain summary of its output;
its check compares that summary with values computed apart from the program
(`truth`) and returns a list of problems, empty when the output is right.

Seeds move each parameter inside a narrow band around a fixed base model,
so every seed yields a model of the same kind and of about the same cost:
the spread between seeds then measures the machine, not the inputs.
"""

import contextlib
import dataclasses
import functools
import io
import json
import math
import os

import numpy as np

import truth

SC_TOL = 1e-6  # RunConfig().sc_tol, the admission threshold being checked
GRID = 9  # multistart grid of the multi-second solves (the CLI --grid flag)


@dataclasses.dataclass
class Op:
    """One timed call into thermoflat plus the check of its output.

    `fault` names a program fault that makes the call raise on every run;
    such an operation is counted as failed when it raises an exception whose
    text contains `fault_text`, and is checked like any other once fixed.
    """

    name: str
    run: object
    check: object
    fault: str = ""
    fault_text: str = ""


@dataclasses.dataclass
class Workload:
    ops: list
    warmup: object


def close(label, got, want, tol):
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        return [f"{label}: got {got!r}, want {want!r} (tol {tol:g})"]
    return []


def summarize(sol):
    """The fields of a GameSolution the checks read (CLI report layout)."""
    return {
        "p_flat": sol.p_flat,
        "p_sharp": sol.p_sharp,
        "gap": sol.gap,
        "m_flat": [list(x.coords) for x in sol.m_flat],
        "equilibria": [
            {"x_plus": list(e.x_plus), "x_minus": list(e.x_minus),
             "residual_plus": e.residual_plus,
             "residual_minus": e.residual_minus, "p_value": e.p_value}
            for e in sol.equilibria
        ],
    }


def check_certificates(out, want_count=None):
    """Admitted equilibria exist, carry residuals <= sc_tol, attain p_flat."""
    eqs = out["equilibria"]
    problems = [] if eqs else ["no admitted equilibrium"]
    if want_count is not None and len(out["m_flat"]) != want_count:
        problems.append(f"{len(out['m_flat'])} maximizers, want {want_count}")
    for e in eqs:
        if not (0.0 <= e["residual_plus"] <= SC_TOL
                and 0.0 <= e["residual_minus"] <= SC_TOL):
            problems.append(f"residuals {e['residual_plus']!r}, "
                            f"{e['residual_minus']!r} above sc_tol")
        problems += close("equilibrium P(mu)", e["p_value"], out["p_flat"], 1e-6)
    return problems


def check_maximizers(out, want, tol=1e-6):
    got = sorted(x[0] for x in out["m_flat"])
    if len(got) != len(want) or any(abs(a - b) > tol for a, b in zip(got, sorted(want))):
        return [f"maximizers {got!r}, want {sorted(want)!r}"]
    return []


def _solve_op(tf, build_model, solver="solve_flat", grid=None):
    def run():
        cfg = tf.RunConfig(grid=grid) if grid else None
        return summarize(getattr(tf, solver)(build_model(), cfg))
    return run


# -- search_mem1 ---------------------------------------------------------------

# Memory-1 tables of the k=3 models: rows are the two plus potentials.
K3_BASE = np.array([[1.0, -0.4, -0.6], [-0.3, 0.9, -0.6]])
# 5x5 samples of the separable convex function x1^2/2 + x2^2/2 + |x1|/4 +
# |x2|/4.  (A non-separable sum such as |x1 + x2| trips a seed-dependent
# fault: GridSampled.subdiff differentiates the bilinear interpolant, not the
# convex envelope whose conjugate the search uses.)
GRID_AXIS = np.linspace(-2.0, 2.0, 5)


def _grid_values(axis):
    a, b = np.meshgrid(axis, axis, indexing="ij")
    return 0.5 * a**2 + 0.5 * b**2 + 0.25 * np.abs(a) + 0.25 * np.abs(b)


def search_mem1(tf, seed, workdir):
    """Memory-1 models: closed-form linear pressures, so the search dominates."""
    rng = np.random.default_rng([seed, 1])
    beta_sub = rng.uniform(0.58, 0.62)
    beta_sup = rng.uniform(1.96, 2.04)
    beta_field, field = rng.uniform(1.96, 2.04), rng.uniform(0.29, 0.31)
    beta_p, beta_m = rng.uniform(2.94, 3.06), rng.uniform(0.98, 1.02)
    tables = K3_BASE + 0.05 * rng.standard_normal(K3_BASE.shape)
    beta_k3 = rng.uniform(0.98, 1.02)
    grid_values = _grid_values(GRID_AXIS) * rng.uniform(0.98, 1.02)

    a2 = tf.AprioriAlphabet(2)
    a3 = tf.AprioriAlphabet(3)
    spin_table = np.array([1.0, -1.0])
    log2 = np.log([0.5, 0.5])
    log3 = np.log(np.full(3, 1.0 / 3.0))

    def spin():
        return tf.CylinderPotential(a2, spin_table, name="spin")

    def cw(g):
        return lambda: tf.ModelSpec(a2, [spin()], g_plus=g())

    def k3(g):
        return lambda: tf.ModelSpec(
            a3, [tf.CylinderPotential(a3, t) for t in tables], g_plus=g())

    # -- checks against closed forms and brentq roots
    def check_sub(out):
        return (close("p_flat", out["p_flat"], 0.0, 1e-10)
                + check_maximizers(out, [0.0]) + check_certificates(out, 1))

    def check_cw(beta, field):
        @functools.cache
        def ref():
            y = truth.cw_root(beta, field)
            return y, math.log(math.cosh(y)) - (y - field) ** 2 / (2 * beta)

        def check(out):
            y, p = ref()
            want = [y] if field else [-y, y]
            return (close("p_flat", out["p_flat"], p, 1e-9)
                    + check_maximizers(out, want)
                    + check_certificates(out, len(want)))
        return check

    def nl_two_sided(yp, ym):
        return (truth.mem1_pressure(log2, spin_table[None, :], [yp - ym])
                + ym**2 / (2 * beta_m) - yp**2 / (2 * beta_p))

    @functools.cache
    def ref_game():
        bound = 2 * beta_p + 1.0
        flat, _ = truth.sup_1d(lambda yp: truth.inf_1d(
            lambda ym: nl_two_sided(yp, ym))[0], -bound, bound)
        sharp, _ = truth.inf_1d(lambda ym: truth.sup_1d(
            lambda yp: nl_two_sided(yp, ym), -bound, bound, points=81)[0])
        return flat, sharp

    def check_game(out):
        flat, sharp = ref_game()
        problems = close("p_flat", out["p_flat"], flat, 1e-8)
        problems += close("p_sharp", out["p_sharp"], sharp, 1e-7)
        problems += close("gap", out["gap"], out["p_sharp"] - out["p_flat"], 1e-12)
        if not out["gap"] >= -1e-8:
            problems.append(f"gap {out['gap']!r} below -1e-8")
        return problems + check_certificates(out)

    def k3_check(conj, grad_ok):
        bound = 8.0  # the conjugates outgrow P_L(y f) <= |y|_1 long before

        def nl(y):
            return truth.mem1_pressure(log3, tables, y) - conj(y)

        ref = functools.cache(lambda: truth.sup_2d(nl, -bound, bound))

        def check(out):
            problems = close("p_flat", out["p_flat"], ref(), 1e-8)
            for x in out["m_flat"]:
                problems += close("P_NL at maximizer", nl(np.array(x)),
                                  out["p_flat"], 1e-9)
                if grad_ok:
                    # Gibbs mean of the tilted product measure, then x = grad g
                    w = np.exp(log3 + np.array(x) @ tables)
                    tau = tables @ (w / w.sum())
                    problems += close("self-consistency |beta tau - x|",
                                      float(np.abs(beta_k3 * tau - x).max()),
                                      0.0, SC_TOL)
            return problems + check_certificates(out)
        return check

    nodes = np.stack([m.ravel() for m in np.meshgrid(GRID_AXIS, GRID_AXIS,
                                                     indexing="ij")], axis=1)
    check_k3_quad = k3_check(lambda y: float(y @ y) / (2 * beta_k3), True)
    check_k3_grid = k3_check(
        lambda y: truth.grid_conjugate(nodes, grid_values.ravel(), y), False)

    def check_abs(out):
        # P_NL(y+, y-) = log cosh(y+ - y-) - y+^2/6 with |y-| <= 1: the sup
        # over y+ is 0, attained at y+ = y- = 0.
        return (close("p_flat", out["p_flat"], 0.0, 1e-8)
                + check_certificates(out))

    def abs_model():
        return tf.ModelSpec(a2, [spin()], [spin()], tf.Quadratic(3.0),
                            tf.AbsSum(1))

    ops = [
        Op("cw_subcritical", _solve_op(tf, cw(lambda: tf.Quadratic(beta_sub))),
           check_sub),
        Op("cw_supercritical", _solve_op(tf, cw(lambda: tf.Quadratic(beta_sup))),
           check_cw(beta_sup, 0.0)),
        Op("cw_field", _solve_op(tf, cw(lambda: tf.LinearShift(
            np.array([field]), tf.Quadratic(beta_field)))),
           check_cw(beta_field, field)),
        Op("two_sided_game", _solve_op(tf, lambda: tf.ModelSpec(
            a2, [spin()], [spin()], tf.Quadratic(beta_p), tf.Quadratic(beta_m)),
            "solve_game", GRID), check_game),
        Op("k3_quadratic2", _solve_op(tf, k3(lambda: tf.Quadratic(beta_k3, dim=2)),
                                      grid=GRID), check_k3_quad),
        Op("k3_grid2", _solve_op(tf, k3(lambda: tf.GridSampled(
            [GRID_AXIS, GRID_AXIS], grid_values)), grid=GRID), check_k3_grid),
        Op("abs_sum_kink", _solve_op(tf, abs_model), check_abs,
           fault="AbsSum.subdiff treats |tau| > 1e-12 as off the kink, but the "
                 "inner search places the tilt only to ~1e-8, so the Gibbs "
                 "measure at the true optimum is rejected (residual_minus ~ 1)",
           fault_text="no self-consistent optimizer found"),
    ]
    return Workload(ops, ops[0].run)


# -- perron_mem234 -------------------------------------------------------------

# (k, memory, base-table seed) of the one-sided models: transfer dims 2, 9,
# 27 and 64 span the range where power iteration goes from slower to faster
# than dense eigvals.  The base tables keep |lambda2/lambda1| <= 0.82 over the
# whole certified box, so these solves time eigen-solves, not a near-failure
# (the near-failure is the separate fault operation).
PERRON_MODELS = ((2, 2, 122), (3, 3, 19133), (3, 4, 7134), (4, 4, 11144))
PERRON_SCALE = 0.5
SWEEP_POINTS = (-3.0, -1.5, 0.0, 1.5, 3.0)


def perron_mem234(tf, seed, workdir):
    """Memory 2-4 models: nearly all time is in eigenvalue-only Perron solves."""
    rng = np.random.default_rng([seed, 2])
    tables = {}
    for k, m, base_seed in PERRON_MODELS:
        base = np.random.default_rng(base_seed).standard_normal((k,) * m)
        tables[k, m] = PERRON_SCALE * (base + 0.02 * rng.standard_normal(base.shape))
    beta = rng.uniform(0.98, 1.02)
    sweep = np.array(SWEEP_POINTS) + rng.uniform(-0.05, 0.05, len(SWEEP_POINTS))
    # the two-sided memory-2 model of the ROADMAP baseline
    roadmap = np.random.default_rng(1)
    plus_tab, minus_tab = roadmap.standard_normal((2, 2)), roadmap.standard_normal((2, 2))

    def memory2_model():
        a = tf.AprioriAlphabet(2)
        return tf.ModelSpec(a, [tf.CylinderPotential(a, plus_tab)],
                            [tf.CylinderPotential(a, minus_tab)],
                            tf.Quadratic(1.5), tf.Quadratic(1.0))

    def one_sided(k, m):
        def build():
            a = tf.AprioriAlphabet(k)
            return tf.ModelSpec(a, [tf.CylinderPotential(a, tables[k, m])],
                                g_plus=tf.Quadratic(beta))
        return build

    def one_sided_check(table, beta):
        weights = np.full(table.shape[0], 1.0 / table.shape[0])
        bound = 2 * beta * np.abs(table).max() + 1.0

        def nl(y):
            return truth.linear_pressure(weights, y * table) - y * y / (2 * beta)

        ref = functools.cache(lambda: truth.sup_1d(nl, -bound, bound)[0])

        def check(out):
            problems = close("p_flat", out["p_flat"], ref(), 1e-8)
            for x in out["m_flat"]:
                problems += close("P_NL at maximizer", nl(x[0]),
                                  out["p_flat"], 1e-9)
                problems += close(
                    "self-consistency |beta tau - x|",
                    abs(beta * truth.gibbs_mean(weights, table, x[0]) - x[0]),
                    0.0, 1e-5)
            return problems + check_certificates(out)
        return check

    def run_sweep():
        model = memory2_model()
        return {"values": [tf.p_flat_of(model, [y])[0] for y in sweep]}

    @functools.cache
    def ref_sweep():
        w = np.array([0.5, 0.5])
        return [truth.inf_1d(lambda ym: truth.linear_pressure(
            w, y * plus_tab - ym * minus_tab) + ym * ym / 2.0)[0] - y * y / 3.0
            for y in sweep]

    def check_sweep(out):
        problems = []
        for y, got, want in zip(sweep, out["values"], ref_sweep()):
            problems += close(f"P_flat({y:.4f})", got, want, 1e-8)
        return problems

    fault_table = np.random.default_rng(2).standard_normal((3, 3, 3))

    def fault_model():
        a = tf.AprioriAlphabet(3)
        return tf.ModelSpec(a, [tf.CylinderPotential(a, fault_table)],
                            g_plus=tf.Quadratic(3.0))

    ops = [Op(f"solve_k{k}_m{m}_dim{k ** (m - 1)}",
              _solve_op(tf, one_sided(k, m), grid=GRID),
              one_sided_check(tables[k, m], beta))
           for k, m, _ in PERRON_MODELS]
    ops.append(Op("p_flat_of_sweep", run_sweep, check_sweep))
    ops.append(Op(
        "k3_memory3_spectral_gap", _solve_op(tf, fault_model),
        one_sided_check(fault_table, 3.0),
        fault="power_iteration_log gives up after 100k steps at y = -16, "
              "inside the certified radius, where |lambda2/lambda1| ~ 0.99999",
        fault_text="power iteration failed to converge"))
    return Workload(ops, lambda: tf.p_flat_of(memory2_model(), [0.5]))


# -- certify_cli ---------------------------------------------------------------


def _write_model(tf, workdir, name, model, **sections):
    doc = tf.modelio.serialize_model(model)
    doc.update(sections)
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _cli_op(tf, workdir, *argsets):
    """Run `thermoflat <args> --out <file>` in process for each argument set
    and return the parsed reports; a nonzero exit status is an error."""
    def run():
        reports = []
        for args in argsets:
            out = os.path.join(workdir, f"{args[0]}.out.json")
            with contextlib.redirect_stdout(io.StringIO()):
                status = tf.cli.main(list(args) + ["--out", out])
            if status != 0:
                raise RuntimeError(f"thermoflat {args[0]} exited with {status}")
            with open(out) as fh:
                reports.append(json.load(fh))
        return reports[0] if len(reports) == 1 else reports
    return run


def certify_cli(tf, seed, workdir):
    """In-process CLI over model files: oracles, transport, Delta, pressure,
    report, plus Monte-Carlo order-parameter sampling."""
    rng = np.random.default_rng([seed, 3])
    a2, a3 = tf.AprioriAlphabet(2), tf.AprioriAlphabet(3)
    spin_table = np.array([1.0, -1.0])
    w2 = np.array([0.5, 0.5])

    def spin():
        return tf.CylinderPotential(a2, spin_table, name="spin")

    def cw_file(name, beta, **sections):
        return _write_model(tf, workdir, name, tf.ModelSpec(
            a2, [spin()], g_plus=tf.Quadratic(beta)), **sections)

    def oracle_check(p_flat_ref):
        def check(out):
            problems = close("p_flat", out["p_flat"], p_flat_ref(), 1e-8)
            problems += close("direct oracle", out["direct"], out["p_flat"], 1e-5)
            problems += close("bkl oracle", out["bkl"], out["p_flat"], 1e-4)
            problems += close("max_abs_diff", out["max_abs_diff"], max(
                abs(out["p_flat"] - out["direct"]),
                abs(out["p_flat"] - out["bkl"])), 0.0)
            return problems
        return check

    def cw_value(beta):
        y = truth.cw_root(beta)
        return math.log(math.cosh(y)) - y * y / (2 * beta)

    # oracle, memory 1
    beta_o = rng.uniform(1.96, 2.04)
    cw_path = cw_file("cw", beta_o)
    # oracle, memory 2: the acceptance suite's nearest-neighbour Ising model,
    # fixed.  Near beta = 1.2 the bkl oracle's refinement grid lands on other
    # nodes from one beta to the next and its cost jumps by a third, which
    # would swamp the spread this workload is meant to measure.
    beta_i = 1.2
    ising = np.array([[1.0, -1.0], [-1.0, 1.0]])
    ising_path = _write_model(tf, workdir, "ising2", tf.ModelSpec(
        a2, [tf.CylinderPotential(a2, ising, name="nn-ising")],
        g_plus=tf.Quadratic(beta_i)))

    def ising_ref():
        bound = 2 * beta_i + 1.0
        return truth.sup_1d(lambda y: truth.linear_pressure(w2, y * ising)
                            - y * y / (2 * beta_i), -bound, bound)[0]

    # transport: an explicit 10x10 instance on a two-sided model
    beta_p, beta_m = rng.uniform(2.94, 3.06), rng.uniform(0.98, 1.02)
    rows = np.linspace(-2.0, 2.0, 10) + rng.uniform(-0.05, 0.05, 10)
    cols = np.linspace(-1.5, 1.5, 10) + rng.uniform(-0.05, 0.05, 10)
    row_w = rng.dirichlet(np.full(10, 5.0))
    col_w = rng.dirichlet(np.full(10, 5.0))
    transport_path = _write_model(
        tf, workdir, "two_sided", tf.ModelSpec(
            a2, [spin()], [spin()], tf.Quadratic(beta_p), tf.Quadratic(beta_m)),
        transport={
            "rows": {"points": [[float(y)] for y in rows], "weights": row_w.tolist()},
            "cols": {"points": [[float(y)] for y in cols], "weights": col_w.tolist()},
        },
        config={"grid": GRID})

    def nl_two_sided(yp, ym):
        return (truth.mem1_pressure(np.log(w2), spin_table[None, :], [yp - ym])
                + ym**2 / (2 * beta_m) - yp**2 / (2 * beta_p))

    @functools.cache
    def transport_ref():
        cost = np.array([[nl_two_sided(yp, ym) for ym in cols] for yp in rows])
        bound = 2 * beta_p + 1.0
        flat, _ = truth.sup_1d(lambda yp: truth.inf_1d(
            lambda ym: nl_two_sided(yp, ym))[0], -bound, bound)
        return cost, truth.transport_lp(cost, row_w, col_w), flat


    def check_transport(out):
        cost, value, flat = transport_ref()
        plan = np.array(out["coupling"])
        problems = close("primal value vs HiGHS", out["value"], value, 1e-9)
        problems += close("coupling cost", float((plan * cost).sum()),
                          out["value"], 1e-9)
        problems += close("row marginals", float(np.abs(plan.sum(1) - row_w).max()),
                          0.0, 1e-9)
        problems += close("col marginals", float(np.abs(plan.sum(0) - col_w).max()),
                          0.0, 1e-9)
        problems += close("coupling min entry", min(float(plan.min()), 0.0),
                          0.0, 1e-12)
        problems += close("p_flat", out["p_flat"], flat, 1e-8)
        problems += close("dual min slack", out["dual_check"]["min_slack"],
                          float((cost - out["p_flat"]).min()), 1e-9)
        return problems

    # delta: a two-component mixture (order-1 chain, product measure)
    beta_d = rng.uniform(1.96, 2.04)
    flip01, flip10 = rng.uniform(0.05, 0.2, 2)
    weight, prob = rng.uniform(0.3, 0.5), rng.uniform(0.6, 0.8)
    chain = np.array([[1 - flip01, flip01], [flip10, 1 - flip10]])
    chain_pi = np.array([flip10, flip01]) / (flip01 + flip10)
    product = np.array([prob, 1 - prob])
    delta_path = cw_file("cw_delta", beta_d, measures={"mix": {"mixture": [
        {"weight": weight, "order": 1, "stationary": chain_pi.tolist(),
         "transitions": chain.tolist()},
        {"weight": 1 - weight, "order": 0, "stationary": product.tolist()},
    ]}})

    def birkhoff_delta(n):
        """E F(mean of n spins), F(z) = beta z^2 / 2, per mixture component:
        spin correlations decay as lam^|s-t|, lam = 1 - flip01 - flip10 for
        the chain and 0 for the product measure."""
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        total = 0.0
        for w, pi, lam in ((weight, chain_pi, 1 - flip01 - flip10),
                           (1 - weight, product, 0.0)):
            mean = float(pi @ spin_table)
            second = mean**2 + (1 - mean**2) * float((lam ** lags).sum()) / n**2
            total += w * beta_d * second / 2
        return total

    def check_delta(outs):
        short, long_ = outs
        comps = ((weight, chain_pi, chain), (1 - weight, product, None))
        entropy = sum(w * truth.markov_entropy(w2, pi, q) for w, pi, q in comps)
        delta = sum(w * beta_d * float(pi @ spin_table) ** 2 / 2
                    for w, pi, _ in comps)
        problems = []
        for out, n in zip(outs, (8, 16)):
            problems += close("entropy", out["entropy"], entropy, 1e-12)
            problems += close("delta_plus", out["delta_plus"], delta, 1e-12)
            problems += close("f_flat", out["f_flat"], entropy + delta, 1e-12)
            problems += close(f"delta_plus_birkhoff_n, n={n}",
                              out["delta_plus_birkhoff_n"], birkhoff_delta(n), 1e-12)
        # Jensen on the two-block split: E F(avg_2n) <= E F(avg_n), and every
        # finite-n value bounds the ergodic limit Delta from above
        d8, d16 = short["delta_plus_birkhoff_n"], long_["delta_plus_birkhoff_n"]
        if not d8 >= d16 - 1e-12 >= delta - 2e-12:
            problems.append(f"Birkhoff approximants not monotone: n=8 {d8!r}, "
                            f"n=16 {d16!r}, limit {delta!r}")
        return problems

    # pressure: memory-3 and memory-4 potentials on three symbols
    tab3 = rng.standard_normal((3, 3, 3))
    tab4 = rng.standard_normal((3, 3, 3, 3))
    pressure_path = _write_model(tf, workdir, "mem34", tf.ModelSpec(
        a3, [tf.CylinderPotential(a3, tab3, name="m3"),
             tf.CylinderPotential(a3, tab4, name="m4")],
        g_plus=tf.Quadratic(1.0, dim=2)))

    def check_pressure(out):
        w3 = np.full(3, 1.0 / 3.0)
        entries = out["potentials"]
        problems = [] if len(entries) == 2 else [f"{len(entries)} entries, want 2"]
        for entry, table in zip(entries, (tab3, tab4)):
            p = truth.linear_pressure(w3, table)
            problems += close(f"{entry['name']} p_l", entry["p_l"], p, 1e-10)
            problems += close(f"{entry['name']} normalization residual",
                              entry["normalization_residual"], 0.0, 1e-10)
            problems += close(f"{entry['name']} eigenmeasure mass",
                              sum(entry["eigenmeasure"]), 1.0, 1e-12)
            problems += close(f"{entry['name']} eigenfunction max",
                              max(entry["eigenfunction"]), 1.0, 1e-12)
            # entropy duality h(mu) = P_L(f) - mu(f) with mu(f) = dP/dy at y=1
            problems += close(f"{entry['name']} entropy duality",
                              entry["gibbs_entropy"],
                              p - truth.gibbs_mean(w3, table, 1.0), 1e-7)
        return problems

    # report on a one-sided Curie-Weiss model
    beta_r = rng.uniform(1.47, 1.53)
    report_path = cw_file("cw_report", beta_r)

    def check_report(out):
        game = out["game"]
        problems = close("pressure p_l", out["pressure"]["potentials"][0]["p_l"],
                         math.log(math.cosh(1.0)), 1e-12)
        problems += close("game p_flat", game["p_flat"], cw_value(beta_r), 1e-9)
        problems += close("one-sided gap", game["gap"], 0.0, 0.0)
        problems += check_certificates(game, 2)
        return problems + oracle_check(lambda: cw_value(beta_r))(out["oracle"])

    # Birkhoff sampling at the positive Curie-Weiss equilibrium
    beta_s = rng.uniform(1.96, 2.04)
    y_s = truth.cw_root(beta_s)
    up = math.exp(y_s) / (2 * math.cosh(y_s))
    sample_seed = int(rng.integers(2**31))

    def run_sampling():
        model = tf.ModelSpec(a2, [spin()], g_plus=tf.Quadratic(beta_s))
        mu = tf.MarkovMeasure.product(a2, [up, 1 - up])
        xs = tf.transport.birkhoff_sampling(model, mu, n=1000, num_samples=5000,
                                            seed=sample_seed)["plus"][:, 0]
        return {"mean": float(xs.mean()),
                "se": float(xs.std(ddof=1) / math.sqrt(len(xs)))}

    def check_sampling(out):
        if not abs(out["mean"] - y_s) < 4 * out["se"]:
            return [f"sample mean {out['mean']!r} not within 4 SE "
                    f"({out['se']!r}) of y* {y_s!r}"]
        return []

    pressure_op = _cli_op(tf, workdir, ("pressure", pressure_path))
    ops = [
        Op("oracle_memory1", _cli_op(tf, workdir, ("oracle", cw_path)),
           oracle_check(functools.cache(lambda: cw_value(beta_o)))),
        Op("oracle_memory2", _cli_op(tf, workdir, ("oracle", ising_path)),
           oracle_check(functools.cache(ising_ref))),
        Op("transport_10x10", _cli_op(tf, workdir, ("transport", transport_path)),
           check_transport),
        Op("delta_birkhoff", _cli_op(
            tf, workdir, ("delta", delta_path, "--birkhoff-n", "8"),
            ("delta", delta_path, "--birkhoff-n", "16")), check_delta),
        Op("pressure_memory34", pressure_op, check_pressure),
        Op("report_memory1", _cli_op(tf, workdir, ("report", report_path)),
           check_report),
        Op("birkhoff_sampling", run_sampling, check_sampling),
    ]
    return Workload(ops, pressure_op)


WORKLOADS = {
    "search_mem1": search_mem1,
    "perron_mem234": perron_mem234,
    "certify_cli": certify_cli,
}
