"""Experiment drivers reproducing the benchmark studies, plus configuration.

Option precedence: command-line overrides > config file > case defaults.
Config files are plain ``key = value`` lines; ``#`` starts a comment.
"""

from __future__ import annotations

import os

import numpy as np

from . import io_utils
from .assembly import evaluate
from .detector import StabilizationParams
from .mesh import build_structured_quad, build_dg_nodes
from .metrics import eoc_fit, eoc_pairs, l2_error, osc
from .problems import get_case
from .solve import SolverConfig, TimeLoopConfig, hybrid_newton, picard, run_transient
from .stabilization import StabilizedProblem

PARAM_KEYS = ("mode", "q", "Q", "sigma", "tau", "gamma",
              "sigma_h", "tau_h", "gamma_h", "L", "enabled",
              "boundary_extrapolation")
SOLVER_KEYS = ("tol", "max_iter", "switch_tol", "omega", "rho", "c1",
               "max_backtracks")


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


def load_config(path):
    options = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line (expected key=value): {line!r}")
            key, value = line.split("=", 1)
            options[key.strip()] = coerce(value)
    return options


def resolve_options(defaults, file_options=None, overrides=None):
    merged = dict(defaults)
    for extra in (file_options or {}), (overrides or {}):
        merged.update(extra)
    return merged


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


def _solve_steady(problem, solver_kw, method, bounds):
    cfg = SolverConfig(**solver_kw)
    if method == "hybrid":
        return hybrid_newton(problem, cfg=cfg, bounds=bounds)
    if method == "picard":
        return picard(problem, cfg=cfg, bounds=bounds)
    raise ValueError(f"unknown solver {method!r}")


def _out(outdir, name):
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


# -- drivers ------------------------------------------------------------------

def run_tuning(options, outdir):
    params_kw, solver_kw, opts = _split_options(options, ("n", "solver"))
    n = int(opts.get("n", 100))
    method = opts.get("solver", "picard")
    case = get_case("tuning", **params_kw)
    mesh = build_structured_quad(n, n)
    nodes = build_dg_nodes(mesh)
    problem = StabilizedProblem(mesh, nodes, case.spec, case.params)
    u, trace = _solve_steady(problem, solver_kw, method, case.bounds)

    # outflow profile: 100 equispaced samples on y=0, from the cells above
    xs = (np.arange(100) + 0.5) / 100.0
    cells = np.minimum((xs * n).astype(np.int64), n - 1)  # bottom row
    pts = np.column_stack([xs, np.zeros_like(xs)])
    values = evaluate(mesh, nodes, u, cells, pts)
    exact = case.outflow_exact(xs)
    io_utils.write_table_csv(_out(outdir, "tuning_outflow.csv"),
                             ["x", "u", "exact"],
                             list(zip(xs, values, exact)))
    trace.to_csv(_out(outdir, "tuning_trace.csv"))
    io_utils.write_vtk(mesh, u, _out(outdir, "tuning_solution.vtk"))
    return {"iterations": trace.iterations, "converged": trace.converged,
            "osc": osc(u), "profile_linf": float(np.abs(values - exact).max())}


def run_smooth(options, outdir):
    params_kw, solver_kw, opts = _split_options(
        options, ("mu", "meshes", "solver"))
    mu = float(opts.get("mu", 1.0))
    meshes = opts.get("meshes", "16,32,64,128")
    if isinstance(meshes, str):
        meshes = [int(t) for t in meshes.split(",")]
    else:
        meshes = [int(meshes)]
    method = opts.get("solver", "picard")
    solver_kw.setdefault("max_iter", 100)

    hs, errors, iters = [], [], []
    for n in meshes:
        case = get_case("smooth", mu=mu, **params_kw)
        mesh = build_structured_quad(n, n)
        nodes = build_dg_nodes(mesh)
        problem = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u, trace = _solve_steady(problem, solver_kw, method, None)
        hs.append(mesh.h)
        errors.append(l2_error(mesh, u, case.exact))
        iters.append(trace.iterations)

    orders = [float("nan")] + eoc_pairs(hs, errors)
    io_utils.write_table_csv(_out(outdir, "smooth_eoc.csv"),
                             ["n", "h", "l2_error", "eoc", "iterations"],
                             list(zip(meshes, hs, errors, orders, iters)))
    return {"hs": hs, "errors": errors, "eoc_fit": eoc_fit(hs, errors),
            "eoc_pairs": orders[1:]}


def run_sharp_layer(options, outdir):
    params_kw, solver_kw, opts = _split_options(options, ("n", "solver"))
    n = int(opts.get("n", 100))
    method = opts.get("solver", "hybrid")
    case = get_case("sharp-layer", **params_kw)
    mesh = build_structured_quad(n, n)
    nodes = build_dg_nodes(mesh)
    problem = StabilizedProblem(mesh, nodes, case.spec, case.params)
    u, trace = _solve_steady(problem, solver_kw, method, case.bounds)
    trace.to_csv(_out(outdir, "sharp_layer_trace.csv"))
    io_utils.write_vtk(mesh, u, _out(outdir, "sharp_layer_solution.vtk"))
    return {"iterations": trace.iterations, "converged": trace.converged,
            "final_osc": osc(u), "max_trace_osc": float(np.nanmax(trace.osc))}


def run_three_body(options, outdir):
    params_kw, solver_kw, opts = _split_options(
        options, ("n", "n_steps", "theta"))
    n = int(opts.get("n", 200))
    n_steps = int(opts.get("n_steps", 2000))
    theta = float(opts.get("theta", 0.5))
    solver_kw.setdefault("tol", 5e-4)
    solver_kw.setdefault("max_iter", 50)
    case = get_case("three-body", **params_kw)
    mesh = build_structured_quad(n, n)
    nodes = build_dg_nodes(mesh)
    problem = StabilizedProblem(mesh, nodes, case.spec, case.params)
    u0 = case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])
    loop = TimeLoopConfig(theta=theta, dt=case.T / n_steps, n_steps=n_steps,
                          solver=SolverConfig(**solver_kw))
    u, traces = run_transient(problem, u0, loop, bounds=case.bounds)

    step_osc = [osc_from_trace(tr) for tr in traces]
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


def osc_from_trace(trace):
    """OSC of the accepted iterate of one time step (last recorded value)."""
    vals = [v for v in trace.osc if not np.isnan(v)]
    return vals[-1] if vals else float("nan")


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
    options = resolve_options({}, file_options, overrides)
    return EXPERIMENTS[name](options, outdir)
