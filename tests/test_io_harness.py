"""File formats, configuration handling, experiment harness and CLI."""

import numpy as np
import pytest
import scipy.sparse as sp

from dgmono import build_dg_nodes, build_structured_quad
from dgmono import io_utils
from dgmono.cli import main as cli_main
from dgmono.harness import (coerce, load_config, osc_from_trace,
                            resolve_options, run_experiment)
from dgmono.solve import SolveTrace


class TestFieldCsv:
    def test_round_trip_exact(self, tmp_path):
        mesh = build_structured_quad(3, 2)
        nodes = build_dg_nodes(mesh)
        u = np.random.default_rng(0).standard_normal(nodes.n_nodes)
        path = tmp_path / "field.csv"
        io_utils.write_field_csv(nodes, u, path)
        back = io_utils.read_field_csv(path)
        assert np.array_equal(back, u)


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

    def test_precedence(self):
        merged = resolve_options({"a": 1, "b": 1}, {"b": 2, "c": 2}, {"c": 3})
        assert merged == {"a": 1, "b": 2, "c": 3}


class TestTraceHelpers:
    def test_osc_from_trace(self):
        tr = SolveTrace()
        tr.record(1.0, osc=0.5)
        tr.record(0.1, osc=0.25)
        tr.record(0.01, osc=None)
        assert osc_from_trace(tr) == 0.25


class TestHarness:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("bogus")

    def test_unknown_option_raises(self, tmp_path):
        with pytest.raises(ValueError, match="z_printed"):
            run_experiment("smooth", overrides={"z_printed": True},
                           outdir=str(tmp_path))

    def test_smooth_small(self, tmp_path):
        report = run_experiment(
            "smooth", overrides={"meshes": "4,8", "mu": 1.0, "tol": 1e-8},
            outdir=str(tmp_path))
        assert (tmp_path / "smooth_eoc.csv").exists()
        assert len(report["errors"]) == 2
        assert report["errors"][1] < report["errors"][0]

    def test_sharp_layer_small(self, tmp_path):
        report = run_experiment(
            "sharp-layer",
            overrides={"n": 8, "solver": "picard", "tol": 1e-4},
            outdir=str(tmp_path))
        assert (tmp_path / "sharp_layer_trace.csv").exists()
        assert (tmp_path / "sharp_layer_solution.vtk").exists()
        assert report["final_osc"] <= 1e-10

    def test_three_body_small(self, tmp_path):
        report = run_experiment(
            "three-body",
            overrides={"n": 8, "n_steps": 4, "tol": 1e-3},
            outdir=str(tmp_path))
        assert (tmp_path / "three_body_osc.csv").exists()
        # smoke only: coarse mesh + huge steps; just require a finite report
        assert np.isfinite(report["max_osc"])


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

    def test_bad_override(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "smooth", "badoption"])

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
