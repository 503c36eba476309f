"""Benchmark problem library: velocity fields, data and exact solutions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .assembly import ProblemSpec
from .detector import StabilizationParams


@dataclass
class ProblemCase:
    """A named benchmark: continuous data plus recommended discretization."""

    name: str
    spec: ProblemSpec
    exact: Optional[Callable] = None
    mesh_n: int = 100
    params: StabilizationParams = field(default_factory=StabilizationParams)
    T: Optional[float] = None
    n_steps: Optional[int] = None
    theta: float = 0.5
    bounds: Optional[tuple] = None


def tuning_inflow_profile(y):
    """Inflow data on the x=0 side of the rotating-pulse problem."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out = np.where((y >= 0.15) & (y <= 0.45), 1.0, out)
    band = (y >= 0.55) & (y <= 0.85)
    out = np.where(band, np.cos((10.0 / 3.0) * np.pi * (y - 0.4))**2, out)
    return out


def case_tuning_rotation(**params_kw):
    """Pure transport of a square pulse and a cosine bump by beta=(y,-x)."""

    def beta(x, y):
        return y, -x

    def ubar(x, y):
        # inflow sides are x=0 (profile) and y=1 (zero)
        return np.where(np.asarray(x) <= 1e-12, tuning_inflow_profile(y), 0.0)

    spec = ProblemSpec(beta=beta, mu=0.0, g=None, ubar=ubar)
    case = ProblemCase(
        name="tuning", spec=spec, mesh_n=100,
        params=StabilizationParams(**params_kw),
        bounds=(0.0, 1.0))
    # exact outflow profile: u(x, 0) is the inflow profile evaluated at x
    case.outflow_exact = tuning_inflow_profile
    return case


def case_smooth(mu=1.0, theta_angle=np.pi / 3, **params_kw):
    """Convection(-diffusion) with exact solution sin(2 pi (x - y/tan theta)).

    The convective term vanishes for this solution, so the source is
    g = mu 4 pi^2 (1 + 1/tan^2 theta) sin(...)."""
    t = np.tan(theta_angle)
    bx, by = np.cos(theta_angle), np.sin(theta_angle)

    def exact(x, y):
        return np.sin(2.0 * np.pi * (x - y / t))

    def g(x, y):
        return mu * 4.0 * np.pi**2 * (1.0 + 1.0 / t**2) * exact(x, y)

    spec = ProblemSpec(beta=lambda x, y: (bx, by), mu=mu,
                       g=g if mu > 0.0 else None, ubar=exact)
    return ProblemCase(name="smooth", spec=spec, exact=exact, mesh_n=16,
                       params=StabilizationParams(**params_kw))


def sharp_layer_data(x, y):
    """Four-sided Dirichlet data of the arctan internal-layer problem."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tol = 1e-12
    profile = 0.5 + np.arctan(1e4 * (y - 0.7)) / np.pi
    return np.select(
        [y <= tol, y >= 1.0 - tol, x <= tol, x >= 1.0 - tol],
        [0.0, 1.0, profile, 0.0], default=0.0)


def case_sharp_layer(**params_kw):
    """Convection-dominated steady problem with sharp internal layer.

    The reference study quotes the smoothing scales for this problem
    directly (sigma_h = 1e-2, tau_h = 1e-4, gamma_h = gamma = 1e-2), so
    those are the case defaults; pass sigma/tau/gamma to use the mesh
    scaling instead.
    """
    bx, by = np.cos(np.pi / 3), -np.sin(np.pi / 3)
    spec = ProblemSpec(beta=lambda x, y: (bx, by), mu=1e-4, g=None,
                       ubar=sharp_layer_data)
    kw = dict(params_kw)
    if kw.get("mode", "smoothed") == "smoothed" and not any(
            kw.get(k) is not None for k in
            ("sigma", "tau", "gamma", "sigma_h", "tau_h")):
        kw.update(sigma_h=1e-2, tau_h=1e-4)
    return ProblemCase(name="sharp-layer", spec=spec, mesh_n=100,
                       params=StabilizationParams(**kw),
                       bounds=(0.0, 1.0))


def three_body_initial(x, y):
    """Slotted cylinder, cone, and smooth hump in the unit square."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    r0 = 0.15

    # slotted cylinder at (0.5, 0.75)
    r = np.hypot(x - 0.5, y - 0.75)
    cyl = (r <= r0) & ~((np.abs(x - 0.5) < 0.025) & (y < 0.85))
    out = np.where(cyl, 1.0, out)

    # cone at (0.5, 0.25)
    r = np.hypot(x - 0.5, y - 0.25)
    out = np.where(r <= r0, np.maximum(out, 1.0 - r / r0), out)

    # smooth hump at (0.25, 0.5)
    r = np.hypot(x - 0.25, y - 0.5)
    hump = 0.25 * (1.0 + np.cos(np.pi * np.minimum(r / r0, 1.0)))
    out = np.where(r <= r0, np.maximum(out, hump), out)
    return out


def case_three_body(**params_kw):
    """Solid-body rotation of three classical shapes over one revolution."""

    def beta(x, y):
        return -2.0 * np.pi * (y - 0.5), 2.0 * np.pi * (x - 0.5)

    def ubar(x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    spec = ProblemSpec(beta=beta, mu=0.0, g=None, ubar=ubar,
                       u0=three_body_initial)
    kw = dict(params_kw)
    kw.setdefault("gamma", 0.0)
    kw.setdefault("Q", 10.0)
    return ProblemCase(name="three-body", spec=spec, mesh_n=200,
                       params=StabilizationParams(**kw),
                       T=1.0, n_steps=2000, theta=0.5, bounds=(0.0, 1.0))


CASES = {
    "tuning": case_tuning_rotation,
    "smooth": case_smooth,
    "sharp-layer": case_sharp_layer,
    "three-body": case_three_body,
}


def get_case(name, **kw):
    if name not in CASES:
        raise KeyError(f"unknown problem case {name!r}; "
                       f"available: {sorted(CASES)}")
    return CASES[name](**kw)
