"""Versioned JSON model files: parsing and lossless serialization.

Schema "thermoflat/1":
{
  "schema": "thermoflat/1",
  "alphabet": {"k": 2, "m": [0.5, 0.5]},
  "plus":  {"potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
            "g": {"kind": "quadratic", "beta": 2.0, "dim": 1}},
  "minus": { ... } | absent,       (potentials need a "g" on their side)
  "measures":  {"name": {"order": 1, "stationary": [...], "transitions": [[...]]}
                | {"mixture": [{"weight": 0.5, "order": 0, "stationary": [...]}]}},
  "transport": {"rows": {"points": [[...]], "weights": [...]}, "cols": { ... }},
  "config": { ... RunConfig overrides ... },
  "label": "free text"
}
"""

import json

import numpy as np

from .convex import AbsSum, GridSampled, LinearShift, Quadratic
from .linearizer import ModelSpec
from .measures import AprioriAlphabet, CylinderPotential, MarkovMeasure, MixtureMeasure
from .transport import DiscreteDualMeasure

SCHEMA = "thermoflat/1"


def parse_convex(spec):
    kind = spec.get("kind")
    if kind == "quadratic":
        return Quadratic(float(spec["beta"]), int(spec.get("dim", 1)))
    if kind == "abs_sum":
        return AbsSum(int(spec.get("dim", 1)))
    if kind == "grid":
        grid = spec["grid"]
        if grid and not isinstance(grid[0], list):
            grid = [grid]
        axes = [np.asarray(g, float) for g in grid]
        values = np.asarray(spec["values"], float).reshape(
            tuple(len(ax) for ax in axes)
        )
        return GridSampled(axes, values)
    if kind == "linear_shift":
        return LinearShift(np.asarray(spec["slope"], float),
                           parse_convex(spec["base"]))
    raise ValueError(f"unknown convex kind: {kind!r}")


def serialize_convex(g):
    if isinstance(g, Quadratic):
        return {"kind": "quadratic", "beta": g.beta, "dim": g.dim}
    if isinstance(g, AbsSum):
        return {"kind": "abs_sum", "dim": g.dim}
    if isinstance(g, GridSampled):
        return {
            "kind": "grid",
            "grid": [list(map(float, ax)) for ax in g.grids],
            "values": np.asarray(g.values, float).ravel().tolist(),
        }
    if isinstance(g, LinearShift):
        return {
            "kind": "linear_shift",
            "slope": np.asarray(g.slope, float).tolist(),
            "base": serialize_convex(g.base),
        }
    raise TypeError(f"unsupported convex type {type(g).__name__}")


def parse_potential(alphabet, spec):
    memory = int(spec["memory"])
    table = np.asarray(spec["table"], dtype=float).reshape((alphabet.k,) * memory)
    return CylinderPotential(alphabet, table, name=spec.get("name", ""))


def serialize_potential(phi):
    return {
        "memory": phi.memory,
        "table": phi.table.ravel().tolist(),
        "name": phi.name,
    }


def parse_measure(alphabet, spec):
    if "mixture" in spec:
        parts = [
            (float(c["weight"]), parse_measure(alphabet, c))
            for c in spec["mixture"]
        ]
        return MixtureMeasure(parts)
    order = int(spec["order"])
    stationary = np.asarray(spec["stationary"], dtype=float)
    if order == 0:
        return MarkovMeasure.product(alphabet, stationary)
    transitions = np.asarray(spec["transitions"], dtype=float)
    return MarkovMeasure(alphabet, order, stationary, transitions)


def serialize_measure(mu):
    if isinstance(mu, MixtureMeasure):
        return {
            "mixture": [
                {"weight": float(w), **serialize_measure(c)}
                for w, c in zip(mu.weights, mu.components)
            ]
        }
    out = {"order": mu.order, "stationary": mu.stationary.tolist()}
    if mu.transitions is not None:
        out["transitions"] = mu.transitions.tolist()
    return out


def parse_model(doc):
    """Build a ModelSpec from a parsed JSON document."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f'model file must declare "schema": "{SCHEMA}"')
    a = doc["alphabet"]
    alphabet = AprioriAlphabet(int(a["k"]), np.asarray(a["m"], dtype=float))

    def side(name):
        if name not in doc or doc[name] is None:
            return [], None
        sec = doc[name]
        pots = [parse_potential(alphabet, p) for p in sec.get("potentials", [])]
        g = parse_convex(sec["g"]) if sec.get("g") is not None else None
        return pots, g

    plus_pots, g_plus = side("plus")
    minus_pots, g_minus = side("minus")
    model = ModelSpec(
        alphabet,
        plus_potentials=plus_pots,
        minus_potentials=minus_pots,
        g_plus=g_plus,
        g_minus=g_minus,
        label=doc.get("label", ""),
    )
    return model


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    return parse_model(doc), doc


def parse_dual_measure(spec, field, dim):
    """A transport section's dual measure, every point with `dim`
    coordinates; a ValueError names `field` (e.g. "transport.rows")."""
    points = tuple(
        tuple(float(c) for c in (p if isinstance(p, list) else [p]))
        for p in spec["points"]
    )
    for p in points:
        if len(p) != dim:
            raise ValueError(
                f"{field}.points: point {list(p)} has dimension {len(p)}, "
                f"the model needs {dim}"
            )
    return DiscreteDualMeasure(points, tuple(float(w) for w in spec["weights"]))


def serialize_model(model):
    doc = {
        "schema": SCHEMA,
        "alphabet": {
            "k": model.alphabet.k,
            "m": model.alphabet.weights.tolist(),
        },
        "label": model.label,
    }
    # a side with potentials always has a coupling (ModelSpec)
    for side, g, pots in (("plus", model.g_plus, model.plus_potentials),
                          ("minus", model.g_minus, model.minus_potentials)):
        if g is not None:
            doc[side] = {"potentials": [serialize_potential(p) for p in pots],
                         "g": serialize_convex(g)}
    return doc


def dumps_report(obj):
    """Deterministic JSON: sorted keys, repr-exact floats, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=True) + "\n"
