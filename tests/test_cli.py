import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from liedouble import cli, dynamics, group, sigma
from liedouble.algebra import get_algebra, load_algebra, validate_manin
from liedouble.dynamics import EnergyOperator
from liedouble.phase import PhaseSpace
from oracles import bracket_rows_per_point

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def cfg_path(name):
    return os.path.join(CONFIGS, name)


def run(experiment, config, tmp_path, extra=()):
    return cli.main([experiment, "--config", str(config),
                     "--output", str(tmp_path), "--quiet", *extra])


def write_cfg(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


BASE_CFG = {
    "schema": 1,
    "algebra": "so3-cotangent",
    "cocycle": {"kind": "zero"},
    "seed": 0,
}


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(CONFIGS) if f.endswith(".json")))
def test_every_verdict_is_residual_below_tolerance(name, tmp_path):
    # one verdict rule for every check of every shipped config, the
    # algebra/* checks included
    with open(cfg_path(name)) as fh:
        experiment = json.load(fh)["experiment"]
    report = cli.run(experiment, cfg_path(name), str(tmp_path), quiet=True)
    assert report["checks"]
    for c in report["checks"]:
        assert c["passed"] == (c["residual"] < c["tolerance"]), c


class TestCheck:
    """A check reads the largest absolute entry of its residual."""

    def scenario(self, tmp_path):
        return cli.Scenario({"algebra": "so3-cotangent"}, "check", 0,
                            str(tmp_path))

    def test_nan_fails(self, tmp_path):
        sc = self.scenario(tmp_path)
        sc.check("nan", [0.0, np.nan], 1.0)
        assert not sc.checks[-1]["passed"]
        assert np.isnan(sc.checks[-1]["residual"])

    def test_array_reports_largest_absolute_entry(self, tmp_path):
        sc = self.scenario(tmp_path)
        sc.check("array", np.array([[0.1, -0.7], [0.3, 0.2]]), 0.5)
        sc.check("scalar", -0.2, 0.5)
        assert [c["residual"] for c in sc.checks] == [0.7, 0.2]
        assert [c["passed"] for c in sc.checks] == [False, True]


class TestExperiments:
    @pytest.mark.parametrize("experiment,config", [
        ("check", "so3_check.json"),
        ("brackets", "sl2_brackets.json"),
        ("flow", "sl2_flow.json"),
        ("collective", "sl2_collective.json"),
        ("legendre", "sl2_legendre.json"),
        ("loop", "loop_flow.json"),
        ("converge", "loop_converge.json"),
    ])
    def test_shipped_configs_pass(self, experiment, config, tmp_path):
        assert run(experiment, cfg_path(config), tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"]
        assert report["experiment"] == experiment
        for check in report["checks"]:
            assert {"name", "residual", "tolerance", "passed"} <= set(check)
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))

    def test_sigma_config_passes(self, tmp_path):
        # kept separate: the 100-point operator-identity sweep is slower
        assert run("sigma", cfg_path("sl2_sigma.json"), tmp_path) == 0

    def test_check_reports_many_checks(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "schema": 1,
            "algebra": "sl2c-iwasawa",
            "cocycle": {"kind": "coboundary",
                        "mu0": [0.0, 0.0, 0.0, 0.9, 0.0, 0.0]},
            "fiber": {"g_minus": [0, 0, 0, 0.3, 0, 0],
                      "eta_minus": [0, 0, 0, 0.7, 0, 0]},
            "seed": 1,
        })
        assert run("check", cfg, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["checks"]) >= 20

    def test_zero_hamiltonian_flow_is_constant(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG,
            fiber={"g_minus": [0, 0, 0, 0.3, 0, 0],
                   "eta_minus": [0, 0, 0, 0.4, 0, 0]},
            integrator={"dt": 0.01, "steps": 20},
            options={"hamiltonian": "zero"}))
        assert run("flow", cfg, tmp_path) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        n_state = 32 + 6  # matrix re/im entries plus eta coordinates
        first = rows[1].split(",")[1:1 + n_state]
        last = rows[-1].split(",")[1:1 + n_state]
        assert first == last

    def test_zero_hamiltonian_loop_is_constant(self, tmp_path):
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["options"]["hamiltonian"] = "zero"
        assert run("loop", write_cfg(tmp_path, cfg), tmp_path) == 0
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()
        n_state = 8 + 8 * 6  # one site's matrix re/im entries plus eta
        first = rows[1].split(",")[1:1 + n_state]
        last = rows[-1].split(",")[1:1 + n_state]
        assert first == last


class TestConfigErrors:
    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("check", bad, tmp_path) == 2

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, typo_key=1))
        assert run("check", cfg, tmp_path) == 2

    def test_unknown_section_key(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG,
                                       cocycle={"kind": "zero", "oops": 1}))
        assert run("check", cfg, tmp_path) == 2

    def test_wrong_schema_version(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, schema=99))
        assert run("check", cfg, tmp_path) == 2

    def test_experiment_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, experiment="flow"))
        assert run("check", cfg, tmp_path) == 2

    def test_unresolvable_algebra(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, algebra="no-such-algebra"))
        assert run("check", cfg, tmp_path) == 2

    def test_missing_fiber_for_brackets(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE_CFG)
        assert run("brackets", cfg, tmp_path) == 2

    def test_bad_mu0_length(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(
            BASE_CFG, cocycle={"kind": "coboundary", "mu0": [1.0, 2.0]}))
        assert run("check", cfg, tmp_path) == 2

    def test_unread_samples_option_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, options={"samples": 8}))
        assert run("check", cfg, tmp_path) == 2

    @pytest.mark.parametrize("seed", [2.5, "7", -1, True])
    def test_invalid_seed_rejected(self, seed, tmp_path):
        cfg = write_cfg(tmp_path, dict(BASE_CFG, seed=seed))
        assert run("check", cfg, tmp_path) == 2

    @pytest.mark.parametrize("section,value", [
        ("integrator", 5), ("cocycle", 3), ("options", []),
        ("energy", "skewed"), ("loop", None)])
    def test_section_must_be_object(self, section, value, tmp_path, capsys):
        cfg = json.loads(open(cfg_path("sl2_flow.json")).read())
        cfg[section] = value
        assert run("flow", write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: %s must be an object" % section)

    def test_cocycle_level_is_unknown_key(self, tmp_path, capsys):
        # the lattice level is loop.level; a second key would leave one dead
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["cocycle"]["level"] = 0.6
        assert run("loop", write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "['level'] in cocycle" in err

    @pytest.mark.parametrize("key,value", [
        ("structure_constants", [[0, 1, 1, float("nan")]]),
        ("pairing", [[0, 1], [1, float("inf")]])])
    def test_declared_non_finite_rejected(self, key, value, tmp_path,
                                          capsys):
        cfg = write_cfg(tmp_path, self.declared(**{key: value}))
        assert run("check", cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: algebra:") and "finite" in err

    @staticmethod
    def declared(**changes):
        decl = {"name": "ab2", "dim": 2, "labels": ["a", "b"],
                "structure_constants": [], "pairing": [[0, 1], [1, 0]],
                "plus_indices": [0], "minus_indices": [1]}
        decl.update(changes)
        return dict(BASE_CFG, algebra=decl)

    def test_structure_constant_index_out_of_range(self, tmp_path):
        # a negative index must not wrap to the last basis vector
        for entry in ([0, -1, 0, 1.0], [0, 1, 2, 1.0]):
            cfg = write_cfg(tmp_path, self.declared(
                structure_constants=[entry]))
            assert run("check", cfg, tmp_path) == 2

    def test_labels_length_mismatch(self, tmp_path):
        cfg = write_cfg(tmp_path, self.declared(labels=["a", "b", "c"]))
        assert run("check", cfg, tmp_path) == 2

    @pytest.mark.parametrize("integrator", [
        {"steps": 0}, {"dt": float("nan")}, {"dt": -0.01}])
    def test_invalid_integrator_rejected(self, integrator, tmp_path):
        cfg = json.loads(open(cfg_path("sl2_collective.json")).read())
        cfg["integrator"].update(integrator)
        assert run("collective", write_cfg(tmp_path, cfg), tmp_path) == 2


class TestTypedFields:
    @pytest.mark.parametrize("config,section,key,value", [
        ("sl2_brackets.json", "options", "points", 0),
        ("sl2_brackets.json", "options", "pairs", -1),
        ("sl2_legendre.json", "options", "points", 2.0),
        ("sl2_flow.json", "integrator", "steps", 2.5),
        ("sl2_flow.json", "integrator", "steps", True),
        ("sl2_flow.json", "integrator", "dt", "0.01"),
        ("sl2_flow.json", "options", "energy_tol", float("inf")),
        ("sl2_flow.json", "options", "energy_tol", float("nan")),
        ("sl2_flow.json", "options", "energy_tol", 0),
        ("loop_flow.json", "options", "amplitude", -0.2),
        ("loop_flow.json", "loop", "sites", 8.0),
        ("loop_converge.json", "loop", "samples", 0),
        ("loop_converge.json", "loop", "sizes", [8, 0]),
        ("loop_converge.json", "loop", "sizes", [8]),
        ("loop_converge.json", "loop", "sizes", [8, 9]),
        ("loop_flow.json", "loop", "level", "abc"),
        ("loop_flow.json", "loop", "level", float("nan")),
        ("loop_flow.json", "cocycle", "level", float("inf")),
        ("sl2_flow.json", "cocycle", "mu0", [0, 0, 0, float("nan"), 0, 0]),
        ("sl2_flow.json", "energy", "matrix",
         np.where(np.eye(6) > 0, float("nan"), 0.0).tolist()),
        ("sl2_flow.json", "fiber", "eta_minus",
         [0, 0, 0, float("nan"), 0, 0]),
        ("sl2_flow.json", "fiber", "g_minus",
         {"matrix": [[1, 0], [0, [float("nan"), 0]]]}),
        ("sl2_flow.json", "fiber", "g_minus", {"matrix": [1, 2]}),
        ("loop_flow.json", "fiber", "eta_minus",
         {"constant": [0, 0, 0, float("inf"), 0, 0]}),
        ("sl2_flow.json", "integrator", "method", "euler"),
        pytest.param("loop_flow.json", "loop", "level", 10 ** 400,
                     id="loop_flow.json-loop-level-int-beyond-float"),
    ])
    def test_invalid_value_is_config_error(self, config, section, key, value,
                                           tmp_path, capsys):
        # a vacuous loop, a truncated count or an infinite tolerance would
        # otherwise run and could report a pass
        cfg = json.loads(open(cfg_path(config)).read())
        cfg.setdefault(section, {})[key] = value
        assert run(cfg["experiment"], write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")
        assert "Traceback" not in err


    @pytest.mark.parametrize("config,section,key,word", [
        ("sl2_flow.json", "options", "hamiltonian", "quadratc"),
        ("sl2_flow.json", "energy", "preset", "skewd"),
        ("sl2_flow.json", "cocycle", "kind", "coboundry"),
        ("loop_flow.json", "cocycle", "kind", "lattice"),
    ])
    def test_word_outside_its_list(self, config, section, key, word,
                                   tmp_path, capsys):
        # the message names the key and the words it accepts
        cfg = json.loads(open(cfg_path(config)).read())
        cfg.setdefault(section, {})[key] = word
        assert run(cfg["experiment"], write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: %s.%s must be " % (section, key))
        words = cli.SCHEMA[section][key][1].words
        assert all(json.dumps(w) in err for w in words)


class TestLoopEnergy:
    """A loop's energy operator acts site by site, the same on every site."""

    @staticmethod
    def loop_cfg(energy):
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["energy"] = energy
        cfg["integrator"]["steps"] = 5
        return cfg

    def test_full_dimension_matrix_rejected(self, tmp_path, capsys):
        cfg = self.loop_cfg({"matrix": np.eye(48).tolist()})
        assert run("loop", write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "one site's 6x6 matrix" in err

    @pytest.mark.parametrize("energy", [
        {"preset": "skewed"},
        {"matrix": EnergyOperator.preset(get_algebra("sl2c-iwasawa"),
                                         "skewed").matrix.tolist()},
    ])
    def test_site_energy_runs(self, energy, tmp_path):
        cfg = self.loop_cfg(energy)
        assert run("loop", write_cfg(tmp_path, cfg), tmp_path) in (0, 1)
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["checks"]) == 5


class TestLoopFiberMatrix:
    """On a loop, fiber.g_minus.matrix is one site's matrix on every site."""

    C = [0.0, 0.0, 0.0, 0.3, 0.0, 0.0]

    @staticmethod
    def entries(m):
        return [[[z.real, z.imag] for z in row] for row in m]

    def run_loop(self, g_minus, tmp_path, name):
        cfg = TestLoopEnergy.loop_cfg({"preset": "isotropic"})
        cfg["fiber"]["g_minus"] = g_minus
        out = tmp_path / name
        return run("loop", write_cfg(tmp_path, cfg, name + ".json"), out), out

    def test_matrix_runs_like_constant(self, tmp_path):
        m = group.exp(get_algebra("sl2c-iwasawa"), self.C).matrix[0]
        names = []
        for name, spec in (("constant", {"constant": self.C}),
                           ("matrix", {"matrix": self.entries(m)})):
            rc, out = self.run_loop(spec, tmp_path, name)
            assert rc == 0
            report = json.loads((out / "report.json").read_text())
            names.append([c["name"] for c in report["checks"]])
        assert names[0] == names[1]

    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.0], [0.1, 1.0]],  # off SB(2,C) on every site
        [[1.0]],                   # not one site's 2 x 2 matrix
    ], ids=["off-minus", "wrong-size"])
    def test_bad_matrix_exits_2(self, matrix, tmp_path, capsys):
        rc, _ = self.run_loop({"matrix": matrix}, tmp_path, "bad")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error: fiber")


class TestRealFiberMatrix:
    """A real representation takes real g_minus entries only."""

    @staticmethod
    def so3_cfg(corner):
        cfg = json.loads(open(cfg_path("so3_check.json")).read())
        cfg["fiber"]["g_minus"] = {"matrix": [
            [1, 0, 0, corner], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
        return cfg

    def test_imaginary_entry_exits_2(self, tmp_path, capsys):
        cfg = self.so3_cfg([0.3, 0.5])
        assert run("check", write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "imaginary" in err

    def test_real_entries_run_without_warnings(self, tmp_path):
        # a subprocess, because pytest collects warnings in-process
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "liedouble.cli", "check", "--config",
             str(write_cfg(tmp_path, self.so3_cfg([0.3, 0.0]))), "--output",
             str(tmp_path), "--quiet"], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stderr == ""


class TestLoopCheck:
    @staticmethod
    def dirac_check(tmp_path):
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["experiment"] = "check"
        rc = run("check", write_cfg(tmp_path, cfg), tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        [shape] = [c for c in report["checks"]
                   if c["name"] == "phase/dirac_block_shape"]
        return rc, shape

    def test_dirac_matrix_is_the_constraint_brackets(self, tmp_path):
        rc, shape = self.dirac_check(tmp_path)
        assert rc == 0 and shape["residual"] <= 1e-12

    def test_check_sees_an_omega_off_the_brackets(self, tmp_path,
                                                   monkeypatch):
        # a Dirac matrix of the right block shape and antisymmetric, whose
        # Omega is not the constraint brackets
        exact = PhaseSpace.dirac_matrix

        def shifted(space, p):
            d = exact(space, p)
            n = d.shape[0] // 2
            d[n, n + 1] += 1e-6
            d[n + 1, n] -= 1e-6
            return d

        monkeypatch.setattr(PhaseSpace, "dirac_matrix", shifted)
        rc, shape = self.dirac_check(tmp_path)
        assert rc == 1 and not shape["passed"]


def corrupted_so3(**changes):
    """so3-cotangent declared inline, with some of its entries replaced."""
    a = get_algebra("so3-cotangent")
    entries = [[i, j, k, float(v)]
               for (i, j, k), v in np.ndenumerate(a.structure_constants)
               if v != 0.0]
    decl = {
        "name": "corrupted",
        "dim": a.dim,
        "labels": list(a.labels),
        "structure_constants": entries,
        "pairing": a.pairing.tolist(),
        "plus_indices": [int(i) for i in a.plus_indices],
        "minus_indices": [int(i) for i in a.minus_indices],
    }
    decl.update(changes)
    return decl


class TestManinChecks:
    """A check report's algebra/* verdicts are validate_manin's."""

    SOURCES = {
        "so3-cotangent": "so3-cotangent",
        "sl2c-iwasawa": "sl2c-iwasawa",
        "jacobi": corrupted_so3(structure_constants=corrupted_so3()[
            "structure_constants"] + [[0, 1, 2, 1.3], [1, 0, 2, -1.3]]),
        "pairing": corrupted_so3(pairing=np.kron(
            [[0, 1], [1, 0]], np.diag([1.0, 1.0, 1e-13])).tolist()),
        "invariance": corrupted_so3(pairing=np.kron(
            [[0, 1], [1, 0]], np.diag([1.0, 2.0, 3.0])).tolist()),
    }

    @pytest.mark.parametrize("name", SOURCES)
    def test_check_fails_iff_validate_manin_fails(self, name, tmp_path):
        source = self.SOURCES[name]
        cfg = write_cfg(tmp_path, dict(BASE_CFG, algebra=source))
        run("check", cfg, tmp_path, ["--seed", "1"])
        report = json.loads((tmp_path / "report.json").read_text())
        failures = validate_manin(load_algebra(source))["failures"]
        assert bool(failures) == (name not in ("so3-cotangent",
                                               "sl2c-iwasawa"))
        checks = [c for c in report["checks"]
                  if c["name"].startswith("algebra/")]
        assert len(checks) >= 10
        for c in checks:
            assert (not c["passed"]) == (c["name"][8:] in failures), c


def test_readme_schema_names_every_key_and_word():
    readme = open(os.path.join(CONFIGS, "..", "README.md")).read()
    text = readme.split("### Config schema")[1].split("\n### ")[0]
    for table in cli.SCHEMA.values():
        for key, test in table.items():
            assert "`%s`" % key in text, key
            for word in getattr(test and test[1], "words", ()):
                assert "`%s`" % json.dumps(word) in text, (key, word)


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, liedouble.cli\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_legendre_rows_are_single_point_values(tmp_path):
    # the experiment's one stack writes what a loop over points would
    assert run("legendre", cfg_path("sl2_legendre.json"), tmp_path) == 0
    with open(tmp_path / "legendre.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    cfg = json.loads(open(cfg_path("sl2_legendre.json")).read())
    sc = cli.Scenario(cfg, "legendre", cfg["seed"], str(tmp_path))
    assert len(rows) == cfg["options"]["points"]
    for i, row in enumerate(rows):
        p = sc.space.random_fiber_point(sc.fiber, sc.rng, 0.3)
        gdot = dynamics.legendre_map(sc.space, sc.e_op, p, sc.fiber)
        want = [sigma.lagrangian_N(sc.space, sc.e_op, p.g_plus(), gdot,
                                   sc.fiber, route)
                for route in ("legendre", "blocks", "r-form")]
        assert row[0] == str(i)
        np.testing.assert_allclose([float(x) for x in row[3:]], want,
                                   rtol=0, atol=1e-14)


def test_bracket_rows_are_single_point_values(tmp_path):
    # one stack of points x pairs writes what the loops over them would
    assert run("brackets", cfg_path("sl2_brackets.json"), tmp_path) == 0
    with open(tmp_path / "bracket_residuals.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    cfg = json.loads(open(cfg_path("sl2_brackets.json")).read())
    sc = cli.Scenario(cfg, "brackets", cfg["seed"], str(tmp_path))
    want = bracket_rows_per_point(sc.space, sc.fiber, sc.rng,
                                  cfg["options"]["points"],
                                  cfg["options"]["pairs"])
    assert len(rows) == len(want)
    for row, one in zip(rows, want):
        assert row[:2] == [str(one[0]), str(one[1])]
        np.testing.assert_allclose([float(x) for x in row[2:4]], one[2:4],
                                   rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose([float(x) for x in row[4:]], one[4:],
                                   rtol=0, atol=1e-14)


class TestNanIsNoPass:
    """A NaN or inf in any sample makes its check fail."""

    def report(self, tmp_path):
        return {c["name"]: c for c in json.loads(
            (tmp_path / "report.json").read_text())["checks"]}

    @staticmethod
    def nan_in_second(monkeypatch, method):
        """PhaseSpace.<method> with NaN as the second of its values."""
        real = getattr(PhaseSpace, method)

        def patched(self, *args):
            out = real(self, *args).copy()
            out[1] = np.nan
            return out

        monkeypatch.setattr(PhaseSpace, method, patched)

    def test_overflowing_fiber_fails_both_bracket_checks(self, tmp_path):
        # eta- = 1e308 overflows most brackets; the finite rows do not
        # make the checks pass
        cfg = json.loads(open(cfg_path("sl2_brackets.json")).read())
        cfg["fiber"]["eta_minus"] = [0, 0, 0, 1e308, 0, 0]
        assert run("brackets", write_cfg(tmp_path, cfg), tmp_path) == 1
        checks = self.report(tmp_path)
        for name in ("brackets/closed_vs_oracle", "brackets/reduced_vs_full"):
            assert not checks[name]["passed"]
            assert np.isnan(checks[name]["residual"])

    def test_nan_pair_fails_loop_remark(self, tmp_path, monkeypatch):
        self.nan_in_second(monkeypatch, "dirac_bracket_reduced")
        assert run("loop", cfg_path("loop_flow.json"), tmp_path) == 1
        check = self.report(tmp_path)["loop/remark_reduced_vs_full"]
        assert np.isnan(check["residual"]) and not check["passed"]

    def test_nan_eta_drift_fails_fiber_frozen(self, tmp_path, monkeypatch):
        # NaN only in the second of the two drifts
        real = dynamics.flow_fiber

        def nan_drift(*args):
            traj = real(*args)
            traj.extras["drift_etaminus"][-1] = np.nan
            return traj

        monkeypatch.setattr(dynamics, "flow_fiber", nan_drift)
        assert run("loop", cfg_path("loop_flow.json"), tmp_path) == 1
        check = self.report(tmp_path)["loop/fiber_frozen"]
        assert np.isnan(check["residual"]) and not check["passed"]

    def test_nan_chart_pair_fails_theta_derivative(self, tmp_path,
                                                    monkeypatch):
        # omega_c is read only by the chart check of -dTheta
        self.nan_in_second(monkeypatch, "omega_c")
        assert run("sigma", cfg_path("sl2_sigma.json"), tmp_path) == 1
        check = self.report(tmp_path)["sigma/theta_derivative"]
        assert np.isnan(check["residual"]) and not check["passed"]


def test_run_starts_no_subprocess(tmp_path):
    # a fresh interpreter, whose audit hook sees every process start,
    # platform's lazy ``uname -p`` included
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "started = []\n"
        "spawns = ('subprocess.Popen', 'os.system', 'os.fork', 'os.forkpty',\n"
        "          'os.exec', 'os.spawn', 'os.posix_spawn')\n"
        "sys.addaudithook(lambda e, args: e in spawns and started.append(e))\n"
        "from liedouble import cli\n"
        "rc = cli.main(['check', '--config', %r, '--output', %r, '--quiet'])\n"
        "assert rc == 0 and not started, (rc, started)\n"
        % (cfg_path("so3_check.json"), str(tmp_path)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["environment"]) == {"python", "numpy", "platform"}


class TestFailureModes:
    def test_corrupted_structure_constants_fail_jacobi(self, tmp_path):
        a = get_algebra("so3-cotangent")
        entries = [[i, j, k, float(v)]
                   for (i, j, k), v in np.ndenumerate(a.structure_constants)
                   if v != 0.0]
        decl = {
            "name": "corrupted",
            "dim": a.dim,
            "labels": list(a.labels),
            "structure_constants": entries + [[0, 1, 2, 1.3], [1, 0, 2, -1.3]],
            "pairing": a.pairing.tolist(),
            "plus_indices": [int(i) for i in a.plus_indices],
            "minus_indices": [int(i) for i in a.minus_indices],
        }
        cfg = write_cfg(tmp_path, {"schema": 1, "algebra": decl, "seed": 0})
        assert run("check", cfg, tmp_path) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "algebra/jacobi" in failed

    def test_cfl_violation_is_config_error(self, tmp_path):
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["integrator"]["dt"] = 10.0
        assert run("loop", write_cfg(tmp_path, cfg), tmp_path) == 2

    def test_cfl_bound_reads_loop_level(self, tmp_path, capsys):
        # ds / k = 0.0039 < dt = 0.005 at the loop's level, the one level
        # of the lattice cocycle
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["loop"]["level"] = 200
        assert run("loop", write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CFL" in err

    @pytest.mark.parametrize("experiment", ["flow", "collective", "sigma"])
    def test_cfl_guards_every_loop_flow(self, experiment, tmp_path, capsys):
        # ds / k = 1.31 < dt = 2 on the loop of loop_flow.json
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["experiment"] = experiment
        cfg["integrator"]["dt"] = 2.0
        assert run(experiment, write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "CFL" in err

    def test_non_finite_full_flow_exits_3(self, tmp_path, capsys):
        # a step of 10 overflows the exponential on the first step
        cfg = write_cfg(tmp_path, {
            "schema": 1, "algebra": "sl2c-iwasawa",
            "energy": {"preset": "skewed"},
            "integrator": {"dt": 10.0, "steps": 20}, "seed": 0})
        assert run("flow", cfg, tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "step 1 is not finite" in err

    def test_numerical_failure_is_one_line(self, tmp_path):
        # a large step on a rough 32-site field overflows the exponential;
        # the run must end in the one-line message, with no numpy warnings
        # (a subprocess, because pytest collects warnings in-process)
        cfg = json.loads(open(cfg_path("loop_flow.json")).read())
        cfg["loop"]["sites"] = 32
        cfg["integrator"]["dt"] = 0.08
        cfg["options"]["amplitude"] = 1.0
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "liedouble.cli", "loop", "--config",
             str(write_cfg(tmp_path, cfg)), "--output", str(tmp_path),
             "--quiet"], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("numerical failure:")

    def test_unexpected_exception_is_one_line_exit_3(self, tmp_path,
                                                      monkeypatch, capsys):
        def broken(sc):
            raise KeyError("no such entry")
        monkeypatch.setitem(cli.COMMANDS, "check", broken)
        assert run("check", write_cfg(tmp_path, BASE_CFG), tmp_path) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "KeyError" in err
        assert "Traceback" not in err


def sl2c_declared(config, **changes):
    """A shipped config with sl2c-iwasawa declared inline: the same
    structure constants and pairing, no matrix representation."""
    a = get_algebra("sl2c-iwasawa")
    decl = {"name": "sl2c-declared", "dim": a.dim, "labels": list(a.labels),
            "structure_constants": [
                [i, j, k, float(v)]
                for (i, j, k), v in np.ndenumerate(a.structure_constants)
                if v != 0.0],
            "pairing": a.pairing.tolist(),
            "plus_indices": [int(i) for i in a.site_plus],
            "minus_indices": [int(i) for i in a.site_minus]}
    cfg = json.loads(open(cfg_path(config)).read())
    cfg.update(changes, algebra=decl)
    return {k: v for k, v in cfg.items() if v is not None}


class TestDeclaredAlgebra:
    """A declared algebra has no matrix representation: a run that needs
    the group layer is a config error, and check stays at the algebra
    level."""

    LOOP_COCYCLE = {"loop": {"sites": 8, "level": 0.6},
                    "cocycle": {"kind": "lattice-derivative"}}

    @pytest.mark.parametrize("experiment,config,changes", [
        ("check", "so3_check.json",
         {"fiber": {"eta_minus": [0.0] * 6}}),
        ("check", "so3_check.json", dict(LOOP_COCYCLE, fiber=None)),
        ("check", "so3_check.json", {}),  # fiber.g_minus coordinates
        ("flow", "sl2_flow.json", {}),
        ("brackets", "sl2_brackets.json", {}),
        ("legendre", "sl2_legendre.json", {}),
        ("collective", "sl2_collective.json", {}),
        ("sigma", "sl2_sigma.json", {}),
        ("loop", "loop_flow.json", {}),
        ("converge", "loop_converge.json", {}),
    ], ids=["check-fiber", "check-lattice-cocycle", "check-g-minus", "flow",
            "brackets", "legendre", "collective", "sigma", "loop",
            "converge"])
    def test_group_runs_exit_2(self, experiment, config, changes, tmp_path,
                               capsys):
        cfg = write_cfg(tmp_path, sl2c_declared(config, **changes))
        assert run(experiment, cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error: algebra:")
        assert "no matrix representation" in err

    @pytest.mark.parametrize("changes", [
        {"fiber": None}, {"fiber": None, "loop": {"sites": 8}}],
        ids=["plain", "loop"])
    def test_check_runs(self, changes, tmp_path):
        cfg = write_cfg(tmp_path, sl2c_declared("so3_check.json", **changes))
        assert run("check", cfg, tmp_path) == 0


class TestExchangingHypothesis:
    """Experiments that follow the restricted field need c_hat to exchange
    the isotropic factors; a generic coboundary is a config error there."""

    @staticmethod
    def generic_cfg(config):
        cfg = json.loads(open(cfg_path(config)).read())
        dim = 48 if "loop" in cfg else 6
        cfg["cocycle"] = {"kind": "coboundary", "mu0": [1.0] * dim}
        return cfg

    @pytest.mark.parametrize("experiment,config", [
        ("flow", "sl2_flow.json"),
        ("collective", "sl2_collective.json"),
        ("sigma", "sl2_sigma.json"),
        ("loop", "loop_flow.json"),
        ("legendre", "sl2_legendre.json"),
    ])
    def test_restricted_experiments_exit_2(self, experiment, config,
                                           tmp_path, capsys):
        cfg = write_cfg(tmp_path, self.generic_cfg(config))
        assert run(experiment, cfg, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exchanges" in err

    @pytest.mark.parametrize("experiment,config", [
        ("brackets", "sl2_brackets.json"),
        ("check", "so3_check.json"),
    ])
    def test_bracket_and_check_experiments_run(self, experiment, config,
                                               tmp_path):
        cfg = write_cfg(tmp_path, self.generic_cfg(config))
        assert run(experiment, cfg, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        names = [c["name"] for c in report["checks"]]
        assert "brackets/reduced_vs_full" not in names
        if experiment == "brackets":
            assert "brackets/closed_vs_oracle" in names


MU0_EXCHANGING = [0.0, 0.0, 0.0, 0.9, 0.0, 0.0]
# fibers off the admissible ones: eta- not a character of g-, or g- outside
# the kernel of the coboundary of MU0_EXCHANGING
OFF_ADMISSIBLE = [
    ({"g_minus": [0, 0, 0, 0.3, 0, 0], "eta_minus": [0, 0, 0, 0, 0.8, 0]},
     "character"),
    ({"g_minus": [0, 0, 0, 0, 0.3, 0], "eta_minus": [0, 0, 0, 0.7, 0, 0]},
     "kernel"),
]


class TestAdmissibleFiber:
    """collective needs an admissible fiber; legendre reports off one."""

    @pytest.mark.parametrize("fiber,word", OFF_ADMISSIBLE)
    def test_collective_exits_2(self, fiber, word, tmp_path, capsys):
        cfg = json.loads(open(cfg_path("sl2_collective.json")).read())
        cfg.update(cocycle={"kind": "coboundary", "mu0": MU0_EXCHANGING},
                   fiber=fiber)
        assert run("collective", write_cfg(tmp_path, cfg), tmp_path) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and word in err

    @pytest.mark.parametrize("fiber,word", OFF_ADMISSIBLE)
    def test_legendre_fails_roundtrip(self, fiber, word, tmp_path):
        # the flow's velocity is not the blocks' Legendre map there, so
        # the Lagrangian inverse does not return the point
        cfg = json.loads(open(cfg_path("sl2_legendre.json")).read())
        cfg.update(fiber=fiber)
        assert run("legendre", write_cfg(tmp_path, cfg), tmp_path) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        checks = {c["name"]: c for c in report["checks"]}
        assert not checks["legendre/roundtrip"]["passed"]


class TestDeterminism:
    def test_same_seed_byte_identical_csv(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("flow", cfg_path("sl2_flow.json"), out1) == 0
        assert run("flow", cfg_path("sl2_flow.json"), out2) == 0
        assert (out1 / "trajectory.csv").read_bytes() \
            == (out2 / "trajectory.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run("flow", cfg_path("sl2_flow.json"), out1) == 0
        assert run("flow", cfg_path("sl2_flow.json"), out2,
                   ("--seed", "99")) == 0
        assert (out1 / "trajectory.csv").read_bytes() \
            != (out2 / "trajectory.csv").read_bytes()
        report = json.loads((out2 / "report.json").read_text())
        assert report["seed"] == 99
