import json
import math
import subprocess
import sys

import numpy as np
import pytest

from thermoflat import cli, modelio
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

    def test_missing_file(self, capsys):
        assert run_cli(["pressure", "/nonexistent/model.json"]) == 2

    def test_bad_flag_value(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["solve", path, "--tol", "-1"]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        doc = dict(CW2)
        doc["config"] = {"bogus": 1}
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_uncertified_perron_solve_is_solver_error(self, tmp_path, capsys):
        # at y+ = -1e306 the tilted table is -inf on every word ending in
        # symbol 1, so state 1 gets no weight and its Perron entry vanishes
        doc = {
            "schema": "thermoflat/1",
            "alphabet": {"k": 2, "m": [0.5, 0.5]},
            "plus": {
                "potentials": [{"memory": 2, "table": [[0.0, 250.0], [0.0, 250.0]]}],
                "g": {"kind": "quadratic", "beta": 1.0, "dim": 1},
            },
        }
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path, "--radius-plus", "1e306"]) == 3
        err = capsys.readouterr().err
        assert "solver error: linear_pressure_tilted at y+ = [-1e+306]" in err
        assert "perron: Collatz-Wielandt bracket width" in err


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        path = write_model(tmp_path, CW2)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run_cli(["solve", path, "--out", str(out1)]) == 0
        assert run_cli(["solve", path, "--out", str(out2)]) == 0
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

    def test_oracle_agreement(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["max_abs_diff"] < 1e-5

    def test_config_echoed(self, tmp_path, capsys):
        path = write_model(tmp_path, CW2)
        assert run_cli(["solve", path, "--grid", "21", "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["grid"] == 21
        assert out["config"]["seed"] == 5

    def test_flags_override_file_config(self, tmp_path, capsys):
        doc = dict(CW2)
        doc["config"] = {"grid": 33}
        path = write_model(tmp_path, doc)
        assert run_cli(["solve", path]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["grid"] == 33
        assert run_cli(["solve", path, "--grid", "17"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["grid"] == 17

    def test_oracle_on_three_symbol_memory2_model(self, tmp_path, capsys):
        # the bkl search reaches tilts where some states of the Gibbs chain
        # carry almost no mass; the chain must stay a valid ergodic chain
        a3 = AprioriAlphabet(3)
        table = np.random.default_rng(3).standard_normal((3, 3))
        model = ModelSpec(a3, [CylinderPotential(a3, table)], g_plus=Quadratic(1.5))
        path = write_model(tmp_path, modelio.serialize_model(model))
        assert run_cli(["oracle", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bkl"] == pytest.approx(out["p_flat"], abs=1e-8)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_model(tmp_path, CW2)
        proc = subprocess.run(
            [sys.executable, "-m", "thermoflat.cli", "pressure", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "pressure"
