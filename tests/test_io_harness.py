"""File formats, configuration handling, experiment harness and CLI."""

import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import dgmono
from dgmono import build_dg_nodes, build_structured_quad, get_case
from dgmono import harness, io_utils
from dgmono.cli import main as cli_main
from dgmono.harness import coerce, load_config, run_experiment


class TestFieldCsv:
    def test_round_trip_exact(self, tmp_path):
        mesh = build_structured_quad(3, 2)
        nodes = build_dg_nodes(mesh)
        u = np.random.default_rng(0).standard_normal(nodes.n_nodes)
        path = tmp_path / "field.csv"
        io_utils.write_field_csv(nodes, u, path)
        back = io_utils.read_field_csv(path)
        assert np.array_equal(back, u)

    def test_each_node_once(self, tmp_path):
        # node 0 listed twice and node 1 missing: the same row count
        nodes = build_dg_nodes(build_structured_quad(2, 2))
        path = tmp_path / "field.csv"
        io_utils.write_field_csv(nodes, np.arange(16.0), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="exactly once"):
            io_utils.read_field_csv(path)
        path.write_text("\n".join(lines[:1] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match="exactly once"):
            io_utils.read_field_csv(path)

    @pytest.mark.parametrize("cell, local", [(0, 4), (1, -1), (-1, 4),
                                             (-1, 7)])
    def test_node_must_exist(self, tmp_path, cell, local):
        # the row of node 4 cell + local names a node that does not exist,
        # while the ids 4 cell + local still list each node once
        nodes = build_dg_nodes(build_structured_quad(2, 1))
        path = tmp_path / "field.csv"
        io_utils.write_field_csv(nodes, np.arange(8.0), path)
        lines = path.read_text().splitlines()
        row = 1 + 4 * cell + local
        x, y, _, _, value = lines[row].split(",")
        lines[row] = ",".join([x, y, str(cell), str(local), value])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="no dG node"):
            io_utils.read_field_csv(path)


class TestOperatorIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        A = sp.random(12, 7, density=0.3, random_state=2, format="csr")
        path = tmp_path / "op.mtx"
        io_utils.write_operator(A, path)
        back = io_utils.read_operator(path)
        assert (abs(back - A) > 1e-15).nnz == 0


class TestVtk:
    def test_structure(self, tmp_path):
        mesh = build_structured_quad(2, 2)
        u = np.arange(16.0)
        path = tmp_path / "out.vtk"
        io_utils.write_vtk(mesh, u, path, name="phi")
        text = path.read_text().splitlines()
        assert text[0].startswith("# vtk DataFile")
        assert "POINTS 16 double" in text
        assert "CELLS 4 20" in text
        assert "SCALARS phi double 1" in text
        assert text[-1] == "15"

    def test_length_mismatch(self, tmp_path):
        mesh = build_structured_quad(2, 2)
        with pytest.raises(ValueError):
            io_utils.write_vtk(mesh, np.zeros(5), tmp_path / "x.vtk")


class TestAuditCsv:
    def test_write(self, tmp_path):
        report = [{"row": 3, "condition": "K_offdiag", "magnitude": 0.25}]
        path = tmp_path / "audit.csv"
        io_utils.write_audit_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "row,condition,magnitude"
        assert lines[1] == "3,K_offdiag,0.25"


class TestConfig:
    def test_coerce(self):
        assert coerce("true") is True
        assert coerce("False") is False
        assert coerce("42") == 42 and isinstance(coerce("42"), int)
        assert coerce("4.5") == 4.5
        assert coerce("inf") == float("inf")
        assert coerce("picard") == "picard"

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n n = 12 \nmode=raw\ntol = 1e-6\n\n")
        cfg = load_config(path)
        assert cfg == {"n": 12, "mode": "raw", "tol": 1e-6}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_precedence(self, tmp_path):
        # the override's n wins over the file's, which wins over the case's
        path = tmp_path / "run.cfg"
        path.write_text("n = 3\n")
        run_experiment("sharp-layer", overrides={"n": 2},
                       config_path=str(path), outdir=str(tmp_path))
        vtk = (tmp_path / "sharp_layer_solution.vtk").read_text()
        assert "CELLS 4 20\n" in vtk


class TestHarness:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("bogus")

    def test_unknown_option_raises(self, tmp_path):
        with pytest.raises(ValueError, match="z_printed"):
            run_experiment("smooth", overrides={"z_printed": True},
                           outdir=str(tmp_path))

    # neither is an option: the Picard stall window is the hybrid solver's
    # own constant, and gamma is used unscaled
    @pytest.mark.parametrize("key", ["stall_window", "gamma_h"])
    def test_removed_option_raises(self, tmp_path, key):
        with pytest.raises(ValueError, match=key):
            run_experiment("smooth", overrides={key: 5},
                           outdir=str(tmp_path))

    def test_smooth_small(self, tmp_path):
        report = run_experiment(
            "smooth", overrides={"meshes": "4,8", "mu": 1.0, "tol": 1e-8},
            outdir=str(tmp_path))
        assert len(report["errors"]) == 2
        assert report["errors"][1] < report["errors"][0]
        # each mesh's stop: converged flag and final residual
        rows = [r.split(",") for r in
                (tmp_path / "smooth_eoc.csv").read_text().splitlines()]
        assert rows[0][-2:] == ["converged", "residual"]
        assert [r[-2] for r in rows[1:]] == [str(c)
                                             for c in report["converged"]]
        assert [float(r[-1]) for r in rows[1:]] == report["residuals"]

    def test_smooth_reports_unconverged_meshes(self, tmp_path):
        # one iterate is no solution: the EOC row says so
        report = run_experiment(
            "smooth", overrides={"meshes": "4,8", "max_iter": 1},
            outdir=str(tmp_path))
        assert report["converged"] == [False, False]
        rows = (tmp_path / "smooth_eoc.csv").read_text().splitlines()[1:]
        for row, res in zip(rows, report["residuals"]):
            assert res > 0.0
            assert row.split(",")[-2:] == ["False", repr(res)]

    def test_sharp_layer_small(self, tmp_path):
        report = run_experiment(
            "sharp-layer",
            overrides={"n": 8, "solver": "picard", "tol": 1e-4},
            outdir=str(tmp_path))
        assert (tmp_path / "sharp_layer_trace.csv").exists()
        assert (tmp_path / "sharp_layer_solution.vtk").exists()
        assert report["final_osc"] <= 1e-10

    def test_three_body_small(self, tmp_path):
        # coarse mesh + huge steps: some steps end unconverged, and say so
        with pytest.warns(RuntimeWarning, match="did not converge"):
            report = run_experiment(
                "three-body",
                overrides={"n": 8, "n_steps": 4, "tol": 1e-3},
                outdir=str(tmp_path))
        assert (tmp_path / "three_body_osc.csv").exists()
        # smoke only: coarse mesh + huge steps; just require a finite report
        assert np.isfinite(report["max_osc"])

    @pytest.mark.parametrize("name", ["tuning", "sharp-layer", "three-body"])
    def test_defaults_from_case(self, tmp_path, monkeypatch, name):
        """Mesh size, step count and theta default to the case's own."""
        def small_case(case_name, **kw):
            case = get_case(case_name, **kw)
            case.mesh_n, case.n_steps, case.theta = 4, 2, 1.0
            return case

        steps, real_run_transient = [], harness.run_transient

        def run_transient(problem, u0, dt, theta, n_steps, *args, **kw):
            steps.append((n_steps, theta))
            return real_run_transient(problem, u0, dt, theta, n_steps,
                                      *args, **kw)

        monkeypatch.setattr(harness, "get_case", small_case)
        monkeypatch.setattr(harness, "run_transient", run_transient)
        # the 4x4 three-body steps at the case's dt end unconverged
        with (pytest.warns(RuntimeWarning, match="did not converge")
              if name == "three-body" else contextlib.nullcontext()):
            run_experiment(name, overrides={"tol": 1e-3},
                           outdir=str(tmp_path))
        vtk = next(tmp_path.glob("*.vtk")).read_text()
        assert "CELLS 16 80\n" in vtk
        if name == "three-body":
            assert steps == [(2, 1.0)]

    # a truncated count would run another mesh or step count than asked
    @pytest.mark.parametrize("name, key, value", [
        ("tuning", "n", 0), ("sharp-layer", "n", 4.7),
        ("three-body", "n", np.nan), ("three-body", "n_steps", 2.5),
        ("three-body", "n_steps", np.inf), ("smooth", "meshes", 4.5),
        ("smooth", "meshes", "4,8.5"), ("smooth", "meshes", "4,nope")])
    def test_driver_counts_are_integers(self, tmp_path, monkeypatch, name,
                                        key, value):
        monkeypatch.setattr(harness, "_problem", None)  # no set-up is made
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            run_experiment(name, overrides={key: value},
                           outdir=str(tmp_path))


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "sharp-layer" in out and "tuning" in out

    def test_run_with_config_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("meshes = 4\nmu = 1.0\n")
        rc = cli_main(["run", "smooth", "meshes=4,8", "-c", str(cfg),
                       "-o", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "smooth_eoc.csv").exists()

    def test_run_failure_exit_code(self, tmp_path, capsys):
        rc = cli_main(["run", "smooth", "meshes=nope",
                       "-o", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_option_exit_code(self, tmp_path, capsys):
        rc = cli_main(["run", "smooth", "meshes=4", "bogus=1",
                       "-o", str(tmp_path)])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    def test_solver_options(self, tmp_path, monkeypatch):
        """Every SolverConfig field is a CLI option, and any valid
        switch_tol runs the hybrid solver."""
        cfgs, real_solver = [], harness.solver

        def solver(method):
            def run(problem, cfg, **kw):
                cfgs.append(cfg)
                return real_solver(method)(problem, cfg=cfg, **kw)
            return run
        monkeypatch.setattr(harness, "solver", solver)
        rc = cli_main(["run", "sharp-layer", "n=4", "switch_tol=1.0",
                       "max_backtracks=5", "-o", str(tmp_path)])
        assert rc == 0
        assert [(c.switch_tol, c.max_backtracks) for c in cfgs] == [(1.0, 5)]

    def test_non_finite_max_iter_exit_code(self, tmp_path, monkeypatch,
                                           capsys):
        # fails before any set-up, instead of iterating without end
        monkeypatch.setattr(harness, "_problem", None)
        rc = cli_main(["run", "smooth", "meshes=8", "max_iter=nan",
                       "-o", str(tmp_path)])
        assert rc == 1
        assert "max_iter must be an integer" in capsys.readouterr().err

    def test_switch_given_as_word_exit_code(self, tmp_path, monkeypatch,
                                            capsys):
        # enabled=off is the string "off", not False: rejected before set-up
        monkeypatch.setattr(harness, "_problem", None)
        rc = cli_main(["run", "sharp-layer", "n=4", "enabled=off",
                       "-o", str(tmp_path)])
        assert rc == 1
        assert "enabled must be a bool" in capsys.readouterr().err

    def test_smooth_report_prints_plain_floats(self, tmp_path, capsys):
        rc = cli_main(["run", "smooth", "meshes=4,8", "-o", str(tmp_path)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        eoc = next(line for line in lines if line.startswith("eoc_pairs: "))
        order = float(eoc.removeprefix("eoc_pairs: [").removesuffix("]"))
        assert eoc == f"eoc_pairs: [{order!r}]"
        # the CSV writes the same float by its repr
        rows = (tmp_path / "smooth_eoc.csv").read_text().splitlines()
        assert rows[2].split(",")[3] == repr(order)
        res = next(line for line in lines if line.startswith("residuals: "))
        assert rows[2].split(",")[-1] in res

    def test_bad_override(self, capsys):
        rc = cli_main(["run", "smooth", "badoption"])
        assert rc == 1
        assert "error: expected key=value" in capsys.readouterr().err

    def test_audit_round_trip(self, tmp_path, capsys):
        from dgmono.stabilization import StabilizedProblem
        from dgmono import get_case
        case = get_case("sharp-layer")
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u = np.random.default_rng(3).standard_normal(nodes.n_nodes)
        Kt, Bt = prob.operators(u)
        io_utils.write_operator(Kt, tmp_path / "K.mtx")
        io_utils.write_operator(Bt, tmp_path / "B.mtx")
        io_utils.write_field_csv(nodes, prob.alpha(u), tmp_path / "alpha.csv")
        rc = cli_main(["audit", str(tmp_path / "K.mtx"),
                       str(tmp_path / "B.mtx"), str(tmp_path / "alpha.csv"),
                       "-o", str(tmp_path / "audit.csv")])
        assert rc == 0
        assert (tmp_path / "audit.csv").exists()
        assert "0 violation(s)" in capsys.readouterr().out


# Prints the modules of those named that ``import dgmono`` loaded.
IMPORTED = """
import sys
import dgmono
print(" ".join(m for m in ("scipy.io", "dgmono.io_utils", "dgmono.harness")
               if m in sys.modules))
"""


def test_import_loads_no_writer_or_harness():
    # in a fresh interpreter: the writers and the drivers load with their
    # first use, so that every solve does not pay for them at import
    src = Path(dgmono.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", IMPORTED],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
