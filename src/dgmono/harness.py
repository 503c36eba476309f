"""Experiment drivers reproducing the benchmark studies, plus configuration.

Option precedence: command-line overrides > config file > case defaults.
Config files are plain ``key = value`` lines; ``#`` starts a comment.  Both
are read by :func:`parse_options`.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np

from . import io_utils
from .assembly import evaluate
from .detector import StabilizationParams
from .mesh import build_structured_quad, build_dg_nodes
from .metrics import eoc_fit, eoc_pairs, l2_error, osc
from .problems import get_case
from .solve import SolverConfig, check_count, run_transient, solver
from .stabilization import StabilizedProblem

PARAM_KEYS = tuple(f.name for f in fields(StabilizationParams))
SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))


def coerce(text):
    """Parse a config value: bool, int, float, inf, or bare string."""
    s = text.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("inf", "+inf", "infinity"):
        return float("inf")
    for cast in (int, float):
        try:
            return cast(s)
        except ValueError:
            pass
    return s


def parse_options(lines):
    """Options from ``key = value`` items, config-file lines or command-line
    overrides alike: ``#`` starts a comment, blank items are skipped and
    values are coerced; ValueError for an item without ``=``."""
    options = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        options[key.strip()] = coerce(value)
    return options


def load_config(path):
    with open(path) as f:
        return parse_options(f)


def _split_options(options, keys):
    """(params_kw, solver_kw, rest) of ``options``, with ``keys`` the
    driver's own options; any other key raises ValueError."""
    unknown = sorted(set(options).difference(PARAM_KEYS, SOLVER_KEYS, keys))
    if unknown:
        raise ValueError(f"unknown option(s) {', '.join(unknown)}")
    params_kw = {k: options[k] for k in PARAM_KEYS if k in options}
    solver_kw = {k: options[k] for k in SOLVER_KEYS if k in options}
    rest = {k: v for k, v in options.items()
            if k not in PARAM_KEYS and k not in SOLVER_KEYS}
    return params_kw, solver_kw, rest


def _problem(case, n):
    mesh = build_structured_quad(n, n)
    return StabilizedProblem(mesh, build_dg_nodes(mesh), case.spec,
                             case.params)


def _out(outdir, name):
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


# -- drivers ------------------------------------------------------------------

def run_tuning(options, outdir):
    params_kw, solver_kw, opts = _split_options(options, ("n", "solver"))
    case = get_case("tuning", **params_kw)
    cfg = SolverConfig(**solver_kw)
    n = check_count("n", opts.get("n", case.mesh_n))
    method = opts.get("solver", "picard")
    problem = _problem(case, n)
    u, trace = solver(method)(problem, cfg=cfg, bounds=case.bounds)

    # outflow profile: 100 equispaced samples on y=0, from the cells above
    xs = (np.arange(100) + 0.5) / 100.0
    cells = np.minimum((xs * n).astype(np.int64), n - 1)  # bottom row
    pts = np.column_stack([xs, np.zeros_like(xs)])
    values = evaluate(problem.mesh, problem.nodes, u, cells, pts)
    exact = case.outflow_exact(xs)
    io_utils.write_table_csv(_out(outdir, "tuning_outflow.csv"),
                             ["x", "u", "exact"],
                             list(zip(xs, values, exact)))
    trace.to_csv(_out(outdir, "tuning_trace.csv"))
    io_utils.write_vtk(problem.mesh, u, _out(outdir, "tuning_solution.vtk"))
    return {"iterations": trace.iterations, "converged": trace.converged,
            "osc": osc(u), "profile_linf": float(np.abs(values - exact).max())}


def run_smooth(options, outdir):
    params_kw, solver_kw, opts = _split_options(
        options, ("mu", "meshes", "solver"))
    mu = float(opts.get("mu", 1.0))
    meshes = [check_count("meshes", coerce(t)) for t in
              str(opts.get("meshes", "16,32,64,128")).split(",")]
    method = opts.get("solver", "picard")
    cfg = SolverConfig(**{"max_iter": 100, **solver_kw})

    hs, errors, iters, converged, residuals = [], [], [], [], []
    for n in meshes:
        case = get_case("smooth", mu=mu, **params_kw)
        problem = _problem(case, n)
        u, trace = solver(method)(problem, cfg=cfg)
        hs.append(problem.mesh.h)
        errors.append(l2_error(problem.mesh, u, case.exact))
        iters.append(trace.iterations)
        converged.append(trace.converged)
        residuals.append(trace.residuals[-1])

    orders = [float("nan")] + eoc_pairs(hs, errors)
    io_utils.write_table_csv(_out(outdir, "smooth_eoc.csv"),
                             ["n", "h", "l2_error", "eoc", "iterations",
                              "converged", "residual"],
                             list(zip(meshes, hs, errors, orders, iters,
                                      converged, residuals)))
    return {"hs": hs, "errors": errors, "eoc_fit": eoc_fit(hs, errors),
            "eoc_pairs": orders[1:], "converged": converged,
            "residuals": residuals}


def run_sharp_layer(options, outdir):
    params_kw, solver_kw, opts = _split_options(options, ("n", "solver"))
    case = get_case("sharp-layer", **params_kw)
    cfg = SolverConfig(**solver_kw)
    n = check_count("n", opts.get("n", case.mesh_n))
    method = opts.get("solver", "hybrid")
    problem = _problem(case, n)
    u, trace = solver(method)(problem, cfg=cfg, bounds=case.bounds)
    trace.to_csv(_out(outdir, "sharp_layer_trace.csv"))
    io_utils.write_vtk(problem.mesh, u,
                       _out(outdir, "sharp_layer_solution.vtk"))
    return {"iterations": trace.iterations, "converged": trace.converged,
            "final_osc": osc(u), "max_trace_osc": float(np.nanmax(trace.osc))}


def run_three_body(options, outdir):
    params_kw, solver_kw, opts = _split_options(
        options, ("n", "n_steps", "theta"))
    case = get_case("three-body", **params_kw)
    n = check_count("n", opts.get("n", case.mesh_n))
    n_steps = check_count("n_steps", opts.get("n_steps", case.n_steps))
    theta = float(opts.get("theta", case.theta))
    cfg = SolverConfig(**{"tol": 5e-4, "max_iter": 50, **solver_kw})
    problem = _problem(case, n)
    mesh, coords = problem.mesh, problem.nodes.coords
    u0 = case.spec.u0(coords[:, 0], coords[:, 1])
    u, traces = run_transient(problem, u0, case.T / n_steps, theta, n_steps,
                              cfg, bounds=case.bounds)

    step_osc = [tr.osc[-1] for tr in traces]
    io_utils.write_table_csv(
        _out(outdir, "three_body_osc.csv"),
        ["step", "osc", "iterations", "converged"],
        [(i + 1, step_osc[i], traces[i].iterations, traces[i].converged)
         for i in range(len(traces))])
    io_utils.write_vtk(mesh, u, _out(outdir, "three_body_final.vtk"))
    io_utils.write_vtk(mesh, u0, _out(outdir, "three_body_initial.vtk"))
    return {"max_osc": max(step_osc), "final_min": float(u.min()),
            "final_max": float(u.max()),
            "unconverged_steps": sum(not t.converged for t in traces)}


EXPERIMENTS = {
    "tuning": run_tuning,
    "smooth": run_smooth,
    "sharp-layer": run_sharp_layer,
    "three-body": run_three_body,
}


def run_experiment(name, overrides=None, config_path=None, outdir="out"):
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; "
                       f"available: {sorted(EXPERIMENTS)}")
    file_options = load_config(config_path) if config_path else {}
    return EXPERIMENTS[name]({**file_options, **(overrides or {})}, outdir)
