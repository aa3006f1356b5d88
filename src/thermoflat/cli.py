"""Command-line front end: model ingestion, solver orchestration, reports.

Exit codes: 0 success, 2 model/flag validation failure, 3 solver failure.
All reports are deterministic (sorted keys, repr-exact floats) and echo the
full effective configuration.
"""

import argparse
import csv
import dataclasses
import io
import sys

import numpy as np

from . import linearizer, modelio, oracle, transport
from .config import RunConfig
from .measures import entropy_rate
from .ruelle import normalization_residual, rpf_solve


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="thermoflat",
        description="nonlinear topological pressure via max-min linearization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pressure", "solve", "game", "transport", "delta", "oracle",
                 "report"):
        p = sub.add_parser(name)
        p.add_argument("model", help="model JSON file (schema thermoflat/1)")
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        if name == "delta":
            p.add_argument("--measure", type=str, default=None,
                           help="named entry under \"measures\" in the model file")
            p.add_argument("--birkhoff-n", type=_non_negative_int, default=0,
                           help="also evaluate the finite-n approximant "
                                "(0: off)")
    return parser


def _effective_config(args, doc):
    """File-level config section, overridden by command-line flags."""
    names = [field.name for field in dataclasses.fields(RunConfig)]
    base = dict(doc.get("config", {}))
    unknown = set(base) - set(names)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for name in names:
        if getattr(args, name) is not None:
            base[name] = getattr(args, name)
    return RunConfig(**base)


def _serialize_solution(sol):
    out = {
        "p_flat": sol.p_flat,
        "p_sharp": sol.p_sharp,
        "gap": sol.gap,
        "m_flat": [list(x.coords) for x in sol.m_flat],
        "m_flat_of": [
            {"x_plus": list(k), "minimizers": [list(m.coords) for m in v]}
            for k, v in sorted(sol.m_flat_of.items())
        ],
        "m_sharp": [list(x.coords) for x in sol.m_sharp],
        "m_sharp_of": [
            {"x_minus": list(k), "maximizers": [list(m.coords) for m in v]}
            for k, v in sorted(sol.m_sharp_of.items())
        ],
        "growth_radii": list(sol.growth_radii),
        "equilibria": [
            {
                "x_plus": list(e.x_plus),
                "x_minus": list(e.x_minus),
                "residual_plus": e.residual_plus,
                "residual_minus": e.residual_minus,
                "p_value": e.p_value,
                "measure": modelio.serialize_measure(e.measure),
            }
            for e in sol.equilibria
        ],
        "diagnostics": sol.diagnostics,
    }
    return out


def cmd_pressure(model):
    entries = []
    for side, pots in (("plus", model.plus_potentials),
                       ("minus", model.minus_potentials)):
        for i, phi in enumerate(pots):
            rpf = rpf_solve(phi)
            entries.append({
                "side": side,
                "index": i,
                "name": phi.name,
                "p_l": rpf.log_lambda,
                "eigenfunction": rpf.h.tolist(),
                "eigenmeasure": rpf.nu.tolist(),
                "normalization_residual": normalization_residual(rpf),
                "gibbs_entropy": entropy_rate(rpf.gibbs),
            })
    return {"potentials": entries}


def _scan_csv(model):
    """(y+, P_flat(y+)) at 201 points across the search box over y+, for a
    1-dimensional plus dual."""
    if model.g_plus is None or model.n_plus != 1:
        return None
    (lo,), (hi,) = model.box_plus
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["y_plus", "p_flat_of"])
    points = np.linspace(lo, hi, 201)
    values, _ = linearizer.p_flat_of(model, points[:, None])
    for t, v in zip(points, values):
        writer.writerow([repr(float(t)), repr(float(v))])
    return buf.getvalue()


def cmd_solve(model, cfg):
    report = _serialize_solution(linearizer.solve_flat(model, cfg))
    report["scan_csv"] = _scan_csv(model)
    return report


def cmd_game(model, cfg):
    sol = linearizer.solve_game(model, cfg)
    return _serialize_solution(sol)


def cmd_transport(model, doc, cfg):
    sol = linearizer.solve_flat(model, cfg)
    if "transport" in doc:
        rows = modelio.parse_dual_measure(
            doc["transport"]["rows"], "transport.rows", model.n_plus)
        cols = modelio.parse_dual_measure(
            doc["transport"]["cols"], "transport.cols", model.n_minus)
    else:
        # default instance: uniform weights on the solved optimizer pairs
        pairs = [(e.x_plus, e.x_minus) for e in sol.equilibria]
        if not pairs:
            raise ArithmeticError("no optimizer pairs available for transport")
        n = len(pairs)
        rows = transport.DiscreteDualMeasure(
            tuple(p for p, _ in pairs), (1.0 / n,) * n
        )
        cols = transport.DiscreteDualMeasure(
            tuple(m for _, m in pairs), (1.0 / n,) * n
        )
    cost = transport.cost_matrix(model, rows.points, cols.points)
    value, coupling = transport.kantorovich_primal(cost, rows, cols)
    dual = transport.kantorovich_dual_check(
        cost, rows, cols, value, p_flat=sol.p_flat
    )
    return {
        "value": value,
        "p_flat": sol.p_flat,
        "coupling": coupling.matrix.tolist(),
        "rows": {"points": [list(p) for p in rows.points],
                 "weights": list(rows.weights)},
        "cols": {"points": [list(p) for p in cols.points],
                 "weights": list(cols.weights)},
        "dual_check": dual,
    }


def cmd_delta(model, doc, args):
    measures = doc.get("measures", {})
    name = args.measure
    if name is None:
        if len(measures) != 1:
            raise ValueError("--measure required when the file defines "
                             f"{len(measures)} measures")
        name = next(iter(measures))
    if name not in measures:
        raise ValueError(f"measure {name!r} not found in model file")
    mu = modelio.parse_measure(model.alphabet, measures[name])
    report = {
        "measure": name,
        "entropy": entropy_rate(mu),
        "f_flat": transport.affine_pressure_flat(model, mu),
        "f_sharp": transport.affine_pressure_sharp(model, mu),
    }
    if model.g_plus is not None:
        report["delta_plus"] = transport.delta_functional(
            model, mu, model.g_plus.value, side="plus")
    if model.g_minus is not None:
        report["delta_minus"] = transport.delta_functional(
            model, mu, model.g_minus.value, side="minus")
    if args.birkhoff_n > 0 and model.g_plus is not None:
        report["delta_plus_birkhoff_n"] = transport.delta_via_birkhoff(
            model.plus_potentials, mu, model.g_plus.value, args.birkhoff_n)
    return report


def cmd_oracle(model, sol):
    """Both oracles against the flat value of the solution `sol`."""
    direct, _ = oracle.direct_pressure(model)
    bkl, _ = oracle.bkl_pressure(model)
    return {
        "p_flat": sol.p_flat,
        "direct": direct,
        "bkl": bkl,
        "max_abs_diff": max(abs(sol.p_flat - direct), abs(sol.p_flat - bkl)),
    }


def cmd_report(model, cfg):
    sol = linearizer.solve_game(model, cfg)
    return {
        "label": model.label,
        "pressure": cmd_pressure(model),
        "game": _serialize_solution(sol),
        "oracle": cmd_oracle(model, sol),
    }


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        model, doc = modelio.load_model(args.model)
        cfg = _effective_config(args, doc)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "pressure":
            report = cmd_pressure(model)
        elif args.command == "solve":
            report = cmd_solve(model, cfg)
        elif args.command == "game":
            report = cmd_game(model, cfg)
        elif args.command == "transport":
            report = cmd_transport(model, doc, cfg)
        elif args.command == "delta":
            report = cmd_delta(model, doc, args)
        elif args.command == "oracle":
            report = cmd_oracle(model, linearizer.solve_flat(model, cfg))
        else:
            report = cmd_report(model, cfg)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.command, "config": dataclasses.asdict(cfg),
              **report}
    text = modelio.dumps_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
