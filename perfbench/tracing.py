"""Per-layer tracing from outside the package.

Every public function of every thermoflat module is wrapped, at every name
that binds it: `from .ruelle import rpf_solve` gives `linearizer`, `oracle`
and `cli` their own reference to `rpf_solve`, so patching only
`ruelle.rpf_solve` would miss those calls.  `ModelSpec.linear_pressure_tilted`
(one linear-pressure evaluation) is wrapped on its class.

Each wrapped call is a span.  Spans are aggregated as they close, into
per-function counts, inclusive and self seconds (self = span minus the spans
of wrapped calls made inside it), and per caller -> callee edges, so memory
stays flat however many calls a pass makes.
"""

import collections
import inspect
import sys
import time

SOLVERS = ("linearizer.solve_flat", "linearizer.solve_sharp",
           "linearizer.solve_game")
PRESSURE_EVAL = "linearizer.ModelSpec.linear_pressure_tilted"


def _layer_name(fn):
    module = fn.__module__.split(".")[1]  # thermoflat.kernels._pykernels -> kernels
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """Installs counting/timing wrappers on the thermoflat package."""

    def __init__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "thermoflat" or name.startswith("thermoflat.")]
        self.sites = []  # (owner, attribute, original)
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("thermoflat.")):
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(_layer_name(value), value)
                self.sites.append((module, attr, value))
        spec = sys.modules["thermoflat.linearizer"].ModelSpec
        method = spec.linear_pressure_tilted
        wrappers[method] = self._wrap(PRESSURE_EVAL, method)
        self.sites.append((spec, "linear_pressure_tilted", method))
        self.wrappers = wrappers
        self.reset()

    def reset(self):
        self.calls = collections.Counter()
        self.incl = collections.Counter()
        self.self_s = collections.Counter()
        self.edges = collections.Counter()
        self.extra = collections.Counter()
        self.stack = []  # [name, seconds spent in wrapped callees]
        self.solver_depth = 0  # open SOLVERS spans
        self.flat_depth = 0  # open solve_flat spans

    def install(self):
        for owner, attr, original in self.sites:
            setattr(owner, attr, self.wrappers[original])

    def uninstall(self):
        for owner, attr, original in self.sites:
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        clock = time.perf_counter
        tracer = self
        is_solver = name in SOLVERS
        is_flat = name == "linearizer.solve_flat"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else ""
            top_solve = is_solver and not tracer.solver_depth
            tracer.solver_depth += is_solver
            tracer.flat_depth += is_flat
            frame = [name, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span = clock() - start
                stack.pop()
                tracer.solver_depth -= is_solver
                tracer.flat_depth -= is_flat
                if stack:
                    stack[-1][1] += span
                tracer._close(name, parent, span, frame[1], top_solve, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, parent, span, child, top_solve, result):
        self.calls[name] += 1
        self.incl[name] += span
        self.self_s[name] += span - child
        self.edges[parent, name] += 1
        extra = self.extra
        if top_solve:
            extra["solves"] += 1
        if name == PRESSURE_EVAL and self.solver_depth:
            extra["evals_in_solves"] += 1
        elif name == "ruelle.rpf_solve" and self.flat_depth:
            # one Gibbs measure per candidate optimizer pair
            extra["candidates"] += 1
            extra["attach_rpf_s"] += span
        elif name == "linearizer.solve_flat" and result is not None:
            extra["admitted"] += len(result.equilibria)

    def snapshot(self):
        """Per-layer metrics, {name: (value, unit)}, of everything recorded
        since the last reset.  Seconds are self times except attach_rpf_s,
        the inclusive time of rpf_solve calls made inside solve_flat."""
        c, s, x = self.calls, self.self_s, self.extra
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        count, secs = "count", "s"
        return {
            "kernels.power_iteration_log.calls": (c["kernels.power_iteration_log"], count),
            "kernels.power_iteration_log.s": (s["kernels.power_iteration_log"], secs),
            "linearizer.pressure_evals": (c[PRESSURE_EVAL], count),
            "linearizer.pressure_eval_s": (s[PRESSURE_EVAL], secs),
            "linearizer.p_nl.calls": (c["linearizer.p_nl"], count),
            "linearizer.evals_per_solve":
                (ratio(x["evals_in_solves"], x["solves"]), "ratio"),
            "linearizer.inner_solves": (c["linearizer.p_flat_of"], count),
            "linearizer.inner_self_s": (s["linearizer.p_flat_of"], secs),
            "linearizer.outer_self_s": (s["linearizer.solve_flat"], secs),
            "linearizer.solve_sharp.s": (s["linearizer.solve_sharp"], secs),
            "linearizer.attach_rpf_s": (x["attach_rpf_s"], secs),
            "linearizer.admitted_per_candidate":
                (ratio(x["admitted"], x["candidates"]), "ratio"),
            "ruelle.rpf_solve.calls": (c["ruelle.rpf_solve"], count),
            "ruelle.rpf_solve.s": (s["ruelle.rpf_solve"], secs),
            "ruelle.build_transfer.s": (s["ruelle.build_transfer"], secs),
            "convex.growth_radius.calls": (c["convex.growth_radius"], count),
            "convex.growth_radius.s": (s["convex.growth_radius"], secs),
            "measures.stationary_distribution.calls":
                (c["measures.stationary_distribution"], count),
            "measures.stationary_distribution.s":
                (s["measures.stationary_distribution"], secs),
            "measures.expectation.calls": (c["measures.expectation"], count),
            "measures.expectation.s": (s["measures.expectation"], secs),
            "measures.entropy_rate.s": (s["measures.entropy_rate"], secs),
            "oracle.direct_pressure.s": (s["oracle.direct_pressure"], secs),
            "oracle.bkl_pressure.s": (s["oracle.bkl_pressure"], secs),
            "oracle.bkl_entropy.calls": (c["oracle.bkl_entropy"], count),
            "transport.kantorovich_primal.s": (s["transport.kantorovich_primal"], secs),
            "transport.cost_matrix.s": (s["transport.cost_matrix"], secs),
            "transport.delta_via_birkhoff.s": (s["transport.delta_via_birkhoff"], secs),
            "transport.birkhoff_sampling.s": (s["transport.birkhoff_sampling"], secs),
            "kernels.sample_state_paths.s": (s["kernels.sample_state_paths"], secs),
            "kernels.birkhoff_averages.s": (s["kernels.birkhoff_averages"], secs),
            "modelio.load_model.s": (s["modelio.load_model"], secs),
            "modelio.dumps_report.s": (s["modelio.dumps_report"], secs),
            "cli.main.calls": (c["cli.main"], count),
            "cli.main.self_s": (s["cli.main"], secs),
        }

    def call_graph(self):
        """Per-function and per-edge aggregates, for the trace file."""
        return {
            "functions": {n: {"calls": self.calls[n], "incl_s": self.incl[n],
                              "self_s": self.self_s[n]} for n in sorted(self.calls)},
            "edges": [{"caller": a or None, "callee": b, "calls": n}
                      for (a, b), n in sorted(self.edges.items())],
        }
