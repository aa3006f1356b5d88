import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermoflat
from thermoflat import cli, linearizer, modelio
from thermoflat.convex import LinearShift, Quadratic
from thermoflat.linearizer import ModelSpec
from thermoflat.measures import AprioriAlphabet, CylinderPotential

CW2 = {
    "schema": "thermoflat/1",
    "alphabet": {"k": 2, "m": [0.5, 0.5]},
    "plus": {
        "potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
        "g": {"kind": "quadratic", "beta": 2.0, "dim": 1},
    },
    "label": "supercritical",
}

TWO_SIDED = {
    "schema": "thermoflat/1",
    "alphabet": {"k": 2, "m": [0.5, 0.5]},
    "plus": {
        "potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
        "g": {"kind": "quadratic", "beta": 3.0, "dim": 1},
    },
    "minus": {
        "potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
        "g": {"kind": "quadratic", "beta": 1.0, "dim": 1},
    },
}


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args):
    return cli.main(args)


class TestModelIO:
    def test_round_trip_model(self, tmp_path):
        path = write_model(tmp_path, CW2)
        model, doc = modelio.load_model(path)
        doc2 = modelio.serialize_model(model)
        model2 = modelio.parse_model(doc2)
        assert model2.label == model.label
        assert model2.alphabet == model.alphabet
        np.testing.assert_array_equal(
            model2.plus_potentials[0].table, model.plus_potentials[0].table
        )
        assert model2.g_plus.beta == model.g_plus.beta

    def test_convex_round_trip_all_kinds(self):
        grid = np.linspace(-1, 1, 11)
        specs = [
            Quadratic(2.5, dim=2),
            LinearShift(np.array([0.3]), Quadratic(1.0)),
        ]
        for g in specs:
            doc = modelio.serialize_convex(g)
            g2 = modelio.parse_convex(doc)
            x = np.full(g.dim, 0.25)
            assert g2.value(x) == pytest.approx(g.value(x), abs=1e-15)

    def test_schema_required(self, tmp_path):
        bad = dict(CW2)
        bad.pop("schema")
        path = write_model(tmp_path, bad)
        with pytest.raises(ValueError, match="schema"):
            modelio.load_model(path)

    def test_measure_round_trip(self):
        a = AprioriAlphabet(2)
        doc = {
            "order": 1,
            "stationary": [2.0 / 3.0, 1.0 / 3.0],
            "transitions": [[0.8, 0.2], [0.4, 0.6]],
        }
        mu = modelio.parse_measure(a, doc)
        doc2 = modelio.serialize_measure(mu)
        mu2 = modelio.parse_measure(a, doc2)
        assert mu.two_cylinder_tv(mu2) < 1e-12


    @pytest.mark.parametrize("points,bad", [
        ([[1.0], [0.5, 0.0]], "[0.5, 0.0] has dimension 2"),  # mixed
        ([[1.0, 0.0], [0.5, 0.0]], "[1.0, 0.0] has dimension 2"),
    ])
    def test_dual_measure_point_dimension(self, points, bad):
        spec = {"points": points, "weights": [0.5, 0.5]}
        with pytest.raises(ValueError) as info:
            modelio.parse_dual_measure(spec, "transport.cols", 1)
        assert str(info.value) == (
            f"transport.cols.points: point {bad}, the model needs 1")


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["pressure", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["potentials"][0]["p_l"] == pytest.approx(
            math.log(math.cosh(1.0))
        )

    def test_malformed_json_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["pressure", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["plus", "minus"])
    @pytest.mark.parametrize("command", ["pressure", "solve"])
    def test_potentials_without_coupling(self, tmp_path, capsys, side, command):
        # rejected when the file loads, before any command runs
        doc = json.loads(json.dumps(TWO_SIDED))
        doc[side]["g"] = None
        path = write_model(tmp_path, doc)
        message = f"{side} potentials need a g_{side} coupling"
        with pytest.raises(ValueError, match=f"^{message}$"):
            modelio.load_model(path)
        assert run_cli([command, path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_file(self, capsys):
        assert run_cli(["pressure", "/nonexistent/model.json"]) == 2

    def test_bad_flag_value(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["solve", path, "--grid", "3"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        doc = dict(CW2)
        doc["config"] = {"bogus": 1}
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 2

    @pytest.mark.parametrize("key", ["seed", "radius_plus", "radius_minus"])
    def test_removed_config_key_is_named(self, tmp_path, capsys, key):
        doc = dict(CW2)
        doc["config"] = {"grid": 9, key: 5}
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 2
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_model_file_cannot_choose_output_path(self, tmp_path, capsys):
        # the output path is the caller's --out, never the model file's
        target = tmp_path / "chosen.json"
        doc = dict(CW2)
        doc["config"] = {"out": str(target)}
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 2
        assert "unknown config keys: ['out']" in capsys.readouterr().err
        assert not target.exists()

    def test_uncertified_perron_solve_is_solver_error(
            self, tmp_path, capsys, monkeypatch):
        # no Perron vector certifies at a zero tolerance, so the first tilt
        # priced fails: the lower corner y+ = 2 * min(table) = -4 of the
        # search box, where the multistart's first start sits
        from thermoflat import ruelle

        monkeypatch.setattr(ruelle, "PERRON_TOL", 0.0)
        a2 = AprioriAlphabet(2)
        table = [[1.0, -2.0], [0.5, 2.0]]
        model = ModelSpec(a2, [CylinderPotential(a2, table)], g_plus=Quadratic(2.0))
        path = write_model(tmp_path, modelio.serialize_model(model))
        assert run_cli(["solve", path]) == 3
        err = capsys.readouterr().err
        assert "solver error: linear_pressure_tilted at y+ = [-4.0], y- = []" in err
        assert "perron: Collatz-Wielandt bracket width" in err

    def test_radius_flag_is_gone(self, tmp_path, capsys):
        # --radius-plus 0 truncated the outer sup to p_flat = 0.0
        path = write_model(tmp_path, CW2)
        with pytest.raises(SystemExit) as info:
            run_cli(["solve", path, "--radius-plus", "0"])
        assert info.value.code == 2


GRID_AXIS = [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
CW_GRID = {
    "schema": "thermoflat/1",
    "alphabet": {"k": 2, "m": [0.5, 0.5]},
    "plus": {
        "potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
        "g": {"kind": "grid", "grid": GRID_AXIS, "values": [x * x for x in GRID_AXIS]},
    },
}

GRID_MINUS = {
    "schema": "thermoflat/1",
    "alphabet": {"k": 2, "m": [0.5, 0.5]},
    "plus": {
        "potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
        "g": {"kind": "quadratic", "beta": 1.5, "dim": 1},
    },
    "minus": {
        "potentials": [{"memory": 1, "table": [1.0, -1.0], "name": "spin"}],
        "g": {
            "kind": "grid", "grid": GRID_AXIS, "values": [x * x / 2 for x in GRID_AXIS]
        },
    },
}


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        path = write_model(tmp_path, CW2)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["solve", path, "--out", str(out1)]) == 0
        assert run_cli(["solve", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_model_solve_byte_identical(self, tmp_path):
        # a grid coupling is searched at the cell vertices of its conjugate;
        # the report counts them and carries no wall time
        path = write_model(tmp_path, CW_GRID)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["solve", path, "--out", str(out1)]) == 0
        assert run_cli(["solve", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        search = json.loads(out1.read_text())["diagnostics"]["search"]
        assert list(search) == ["candidates"]
        assert search["candidates"] > 0

    def test_grid_minus_model_solves_and_plays(self, tmp_path, capsys):
        # the inner inf over a grid minus conjugate ends with tau- on a node,
        # so the equilibrium at y+ = y- = 0 is admitted
        path = write_model(tmp_path, GRID_MINUS)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["solve", path, "--out", str(out1)]) == 0
        assert run_cli(["solve", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["p_flat"] == pytest.approx(0.0, abs=1e-12)
        capsys.readouterr()
        assert run_cli(["game", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap"] >= -1e-8

    def test_report_solves_flat_side_once(self, tmp_path, monkeypatch):
        # the oracle section reads P_flat off the game's solution
        calls = []
        solve_flat = linearizer.solve_flat

        def counted(*args):
            calls.append(args)
            return solve_flat(*args)

        monkeypatch.setattr(linearizer, "solve_flat", counted)
        path = write_model(tmp_path, TWO_SIDED)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["report", path, "--out", str(out1)]) == 0
        assert len(calls) == 1
        assert run_cli(["report", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_reparses_losslessly(self, tmp_path):
        path = write_model(tmp_path, CW2)
        out = tmp_path / "r.json"
        assert run_cli(["solve", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        again = modelio.dumps_report(doc)
        assert again == out.read_text()


class TestSubcommands:
    def test_zero_potential_pressure(self, tmp_path, capsys):
        doc = {
            "schema": "thermoflat/1",
            "alphabet": {"k": 2, "m": [0.5, 0.5]},
            "plus": {
                "potentials": [{"memory": 1, "table": [0.0, 0.0]}],
                "g": {"kind": "quadratic", "beta": 1.0, "dim": 1},
            },
        }
        path = write_model(tmp_path, doc)
        assert run_cli(["pressure", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["potentials"][0]["p_l"] == pytest.approx(0.0, abs=1e-12)

    def test_solve_reports_symmetric_pair(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        coords = sorted(x[0] for x in out["m_flat"])
        assert coords[0] == pytest.approx(-coords[1], abs=1e-6)
        assert out["scan_csv"].startswith("y_plus,p_flat_of")

    def test_solve_certifies_each_growth_radius_once(
            self, tmp_path, capsys, monkeypatch):
        # the model certifies each coupling once; the scan of P_flat(y+),
        # the min-max side and the oracles' start tilts reuse its boxes
        from thermoflat import convex, oracle

        calls = []
        for module in (linearizer, oracle):
            monkeypatch.setattr(
                module, "growth_radius",
                lambda *a: calls.append(a) or convex.growth_radius(*a),
                raising=False)
        path = write_model(tmp_path, TWO_SIDED)
        for command in ("solve", "game", "report"):
            calls.clear()
            assert run_cli([command, path]) == 0, command
            assert len(calls) == 2, command
            if command == "solve":
                out = json.loads(capsys.readouterr().out)
                assert len(out["scan_csv"].splitlines()) == 202

    @pytest.mark.parametrize("g, ends", [
        ({"kind": "quadratic", "beta": 2.0, "dim": 1}, (-2.0, 2.0)),
        ({"kind": "abs_sum", "dim": 1}, (-1.0, 1.0)),
        ({"kind": "linear_shift", "slope": [0.5],
          "base": {"kind": "abs_sum", "dim": 1}}, (-0.5, 1.5)),
    ], ids=["quadratic", "abs_sum", "linear_shift"])
    def test_scan_spans_the_search_box(self, tmp_path, capsys, g, ends):
        # the scan spans the search box over y+: beta * [-1, 1] for the
        # quadratic, the hull of subdiff g+ over the spin's range [-1, 1];
        # for an abs_sum (moved by a linear shift) dom(g+*) = [-1, 1], outside
        # which a scan would read -inf
        doc = json.loads(json.dumps(CW2))
        doc["plus"]["g"] = g
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 0
        header, *rows = json.loads(capsys.readouterr().out)["scan_csv"].splitlines()
        assert header == "y_plus,p_flat_of"
        points = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert len(points) == 201
        assert (points[0, 0], points[-1, 0]) == ends
        assert np.isfinite(points[:, 1]).all()

    def test_subcritical_single_maximizer(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CW2))
        doc["plus"]["g"]["beta"] = 0.5
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["m_flat"]) == 1
        assert out["m_flat"][0][0] == pytest.approx(0.0, abs=1e-6)

    def test_game_weak_duality(self, tmp_path, capsys):
        path = write_model(tmp_path, TWO_SIDED)
        assert run_cli(["game", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gap"] >= -1e-8

    def test_game_on_three_minus_potentials(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TWO_SIDED))
        doc["minus"]["potentials"] *= 3
        doc["minus"]["g"]["dim"] = 3
        path = write_model(tmp_path, doc)
        assert run_cli(["game", path, "--grid", "9"]) == 0
        out = json.loads(capsys.readouterr().out)
        sharp = out["diagnostics"]["sharp"]
        assert sharp["lower"] <= out["p_sharp"] == sharp["upper"]
        assert out["gap"] >= -1e-8

    def test_transport_single_pair_echoes_p_nl(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TWO_SIDED))
        doc["transport"] = {
            "rows": {"points": [[1.2]], "weights": [1.0]},
            "cols": {"points": [[0.4]], "weights": [1.0]},
        }
        path = write_model(tmp_path, doc)
        assert run_cli(["transport", path]) == 0
        out = json.loads(capsys.readouterr().out)
        from thermoflat.linearizer import p_nl

        model, _ = modelio.load_model(path)
        assert out["value"] == pytest.approx(
            p_nl(model, [1.2], [0.4]), abs=1e-12
        )

    @pytest.mark.parametrize("field,message", [
        ("points", "points must be finite"),
        ("weights", "weights must be finite"),
    ])
    def test_transport_non_finite_input_is_validation_error(
            self, tmp_path, capsys, field, message):
        doc = json.loads(json.dumps(TWO_SIDED))
        doc["transport"] = {
            "rows": {"points": [[1.2], [0.3]], "weights": [0.5, 0.5]},
            "cols": {"points": [[0.4]], "weights": [1.0]},
        }
        doc["transport"]["rows"][field][1] = (
            [math.nan] if field == "points" else math.nan)
        path = write_model(tmp_path, doc)
        assert run_cli(["transport", path]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("field,points", [
        ("rows", [[1.2, 0.0], [0.3, 0.0]]),
        ("rows", [[1.2], [0.3, 0.0]]),
        ("cols", [[0.4, 0.1]]),
    ])
    def test_transport_point_dimension_is_validation_error(
            self, tmp_path, capsys, field, points):
        doc = json.loads(json.dumps(TWO_SIDED))
        doc["transport"] = {
            "rows": {"points": [[1.2], [0.3]], "weights": [0.5, 0.5]},
            "cols": {"points": [[0.4]], "weights": [1.0]},
        }
        doc["transport"][field]["points"] = points
        path = write_model(tmp_path, doc)
        assert run_cli(["transport", path]) == 2
        err = capsys.readouterr().err
        assert f"transport.{field}.points" in err
        assert "has dimension 2, the model needs 1" in err

    def test_transport_builds_the_cost_matrix_once(
            self, tmp_path, capsys, monkeypatch):
        from thermoflat import transport

        calls = []
        original = transport.p_nl
        monkeypatch.setattr(transport, "p_nl",
                            lambda *a, **kw: calls.append(a) or original(*a, **kw))
        doc = json.loads(json.dumps(TWO_SIDED))
        doc["transport"] = {
            "rows": {"points": [[1.2], [0.3]], "weights": [0.5, 0.5]},
            "cols": {"points": [[0.4], [0.1], [0.0]],
                     "weights": [0.2, 0.3, 0.5]},
        }
        path = write_model(tmp_path, doc)
        assert run_cli(["transport", path]) == 0
        # one stacked call prices the 2 x 3 pairs
        assert len(calls) == 1
        assert np.shape(calls[0][1]) == (6, 1)
        out = json.loads(capsys.readouterr().out)
        assert out["dual_check"]["dual_value"] == pytest.approx(out["p_flat"])

    def test_delta_on_named_measure(self, tmp_path, capsys):
        doc = json.loads(json.dumps(CW2))
        doc["measures"] = {
            "biased": {"order": 0, "stationary": [0.8, 0.2]},
        }
        path = write_model(tmp_path, doc)
        assert run_cli(["delta", path, "--measure", "biased"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["delta_plus"] == pytest.approx(0.6**2)
        assert out["f_flat"] == pytest.approx(out["f_sharp"])

    @pytest.mark.parametrize("flags", [[], ["--birkhoff-n", "4"]],
                             ids=["plain", "birkhoff"])
    def test_delta_averages_each_component_once(self, tmp_path, capsys,
                                                monkeypatch, flags):
        # a two-sided memory-2 model and a mixture of two chains: one word
        # law per component, and one of the mixture for the minus side of
        # f_sharp; a single chain is its own only component
        doc = json.loads(json.dumps(TWO_SIDED))
        doc["minus"]["potentials"] = [
            {"memory": 2, "table": [[0.5, -1.0], [0.3, 0.2]], "name": "pair"}]
        chain = {"order": 1, "stationary": [0.6, 0.4],
                 "transitions": [[0.8, 0.2], [0.3, 0.7]]}
        doc["measures"] = {
            "mix": {"mixture": [{"weight": 0.3, **chain},
                                {"weight": 0.7, "order": 0, "stationary": [0.1, 0.9]}]},
            "chain": chain,
        }
        path = write_model(tmp_path, doc)
        calls = []
        averages = ModelSpec.averages

        def counted(self, mu):
            calls.append(mu)
            return averages(self, mu)

        monkeypatch.setattr(ModelSpec, "averages", counted)
        for name, count in (("mix", 3), ("chain", 1)):
            calls.clear()
            assert run_cli(["delta", path, "--measure", name, *flags]) == 0
            out = json.loads(capsys.readouterr().out)
            assert len(calls) == count
            assert {"delta_plus", "delta_minus", "f_flat", "f_sharp"} <= set(out)

    def test_delta_rejects_negative_birkhoff_n(self, tmp_path, capsys):
        # a negative word length used to exit 0 without the approximant
        doc = json.loads(json.dumps(CW2))
        doc["measures"] = {"biased": {"order": 0, "stationary": [0.8, 0.2]}}
        path = write_model(tmp_path, doc)
        with pytest.raises(SystemExit) as info:
            run_cli(["delta", path, "--measure", "biased", "--birkhoff-n", "-3"])
        assert info.value.code == 2
        assert "--birkhoff-n: must be >= 0, got -3" in capsys.readouterr().err
        assert run_cli(["delta", path, "--measure", "biased",
                        "--birkhoff-n", "0"]) == 0
        assert "delta_plus_birkhoff_n" not in json.loads(capsys.readouterr().out)

    def test_one_parser_serves_successive_calls(self, tmp_path, capsys):
        # the parser is built once per process; a flag given to one call
        # must not carry over to the next
        doc = json.loads(json.dumps(CW2))
        doc["measures"] = {"biased": {"order": 0, "stationary": [0.8, 0.2]}}
        path = write_model(tmp_path, doc)
        assert run_cli(["delta", path, "--birkhoff-n", "8"]) == 0
        assert "delta_plus_birkhoff_n" in json.loads(capsys.readouterr().out)
        assert run_cli(["delta", path]) == 0
        assert "delta_plus_birkhoff_n" not in json.loads(capsys.readouterr().out)
        assert cli._build_parser() is cli._build_parser()

    def test_oracle_agreement(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_abs_diff"] < 1e-5

    def test_config_echoed(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["solve", path, "--grid", "21"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"] == {"grid": 21}

    def test_flags_override_file_config(self, tmp_path, capsys):
        doc = dict(CW2)
        doc["config"] = {"grid": 33}
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["grid"] == 33
        assert run_cli(["solve", path, "--grid", "17"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["grid"] == 17

    def test_oracle_on_three_symbol_memory2_model(self, tmp_path, capsys):
        # the bkl search reaches tilts where some words carry almost no
        # Gibbs mass; the order-1 direct oracle must find the Gibbs chain
        a3 = AprioriAlphabet(3)
        table = np.random.default_rng(3).standard_normal((3, 3))
        model = ModelSpec(a3, [CylinderPotential(a3, table)], g_plus=Quadratic(1.5))
        path = write_model(tmp_path, modelio.serialize_model(model))
        assert run_cli(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bkl"] == pytest.approx(out["p_flat"], abs=1e-8)
        assert out["direct"] == pytest.approx(out["p_flat"], abs=1e-5)


def child_env():
    """The environment of a child interpreter that imports the same package
    as this process."""
    source = str(Path(thermoflat.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source, env.get("PYTHONPATH")])
    )
    return env


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_model(tmp_path, CW2)
        proc = subprocess.run(
            [sys.executable, "-m", "thermoflat.cli", "pressure", path],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "pressure"


class TestColdStart:
    # scipy loads a subpackage on first attribute access, so a fresh
    # `import thermoflat, thermoflat.cli` loads none of these, and a command
    # that calls no optimizer or LP does not load scipy.optimize (about 0.35 s
    # of a cold start)
    SUBPACKAGES = ("scipy.optimize", "scipy.linalg", "scipy.spatial",
                   "scipy.sparse")

    def loaded(self, argv=None):
        """The SUBPACKAGES a fresh interpreter holds after the import, and
        after cli.main(argv) when argv is given."""
        code = (
            "import contextlib, io, json, sys\n"
            "import thermoflat, thermoflat.cli\n"
            f"argv = {argv!r}\n"
            "if argv is not None:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert thermoflat.cli.main(argv) == 0\n"
            f"print(json.dumps([m for m in {self.SUBPACKAGES!r} if m in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_loads_no_solver_subpackage(self):
        assert self.loaded() == []

    @pytest.mark.parametrize("command", [
        ["pressure"], ["solve"], ["delta", "--measure", "biased"], ["oracle"]],
        ids=lambda command: command[0])
    def test_light_commands_leave_optimize_unloaded(self, tmp_path, command):
        # a Quadratic memory-1 model: closed-form pressures, a lockstep
        # Newton search and the memory-1 product oracle
        doc = json.loads(json.dumps(CW2))
        doc["measures"] = {"biased": {"order": 0, "stationary": [0.8, 0.2]}}
        path = write_model(tmp_path, doc)
        argv = [command[0], path, *command[1:]]
        assert "scipy.optimize" not in self.loaded(argv)

    def test_memory2_oracle_leaves_optimize_unloaded(self, tmp_path):
        # the nearest-neighbour Ising model: both oracles climb over tilts
        # in lockstep, and no row falls back to L-BFGS-B
        doc = json.loads(json.dumps(CW2))
        doc["plus"]["potentials"] = [
            {"memory": 2, "table": [[1.0, -1.0], [-1.0, 1.0]], "name": "nn-ising"}]
        doc["plus"]["g"]["beta"] = 1.2
        path = write_model(tmp_path, doc)
        assert "scipy.optimize" not in self.loaded(["oracle", path])

    def test_two_sided_game_loads_optimize(self, tmp_path):
        # its master LP is a HiGHS model, so the check above can fail
        path = write_model(tmp_path, TWO_SIDED)
        assert "scipy.optimize" in self.loaded(["game", path])
