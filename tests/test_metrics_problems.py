"""Error metrics, convergence-order helpers and the benchmark case library."""

import numpy as np
import pytest

from dgmono import (build_dg_nodes, build_structured_quad, eoc_fit, eoc_pairs,
                    get_case, l2_error, osc)
from dgmono.problems import (sharp_layer_data, three_body_initial,
                             tuning_inflow_profile)


class TestOsc:
    def test_zero_inside_bounds(self):
        assert osc(np.array([0.2, 0.8]), 0.0, 1.0) == 0.0

    def test_overshoot_and_undershoot(self):
        u = np.array([-0.25, 0.5, 1.1])
        assert osc(u, 0.0, 1.0) == pytest.approx(0.25)
        assert osc(u, -0.5, 1.0) == pytest.approx(0.1)


class TestL2Error:
    def test_constant_field(self):
        mesh = build_structured_quad(3, 3)
        nodes = build_dg_nodes(mesh)
        u = np.zeros(nodes.n_nodes)
        err = l2_error(mesh, u, lambda x, y: np.ones_like(x))
        assert err == pytest.approx(1.0, rel=1e-12)

    def test_exact_bilinear_reproduced(self):
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        f = lambda x, y: 2.0 + x - 3.0 * y
        u = f(nodes.coords[:, 0], nodes.coords[:, 1])
        assert l2_error(mesh, u, f) < 1e-13

    def test_interpolation_second_order(self):
        f = lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y)
        errs, hs = [], []
        for n in (8, 16, 32):
            mesh = build_structured_quad(n, n)
            nodes = build_dg_nodes(mesh)
            u = f(nodes.coords[:, 0], nodes.coords[:, 1])
            errs.append(l2_error(mesh, u, f))
            hs.append(mesh.h)
        assert eoc_fit(hs, errs) == pytest.approx(2.0, abs=0.1)


class TestEoc:
    def test_synthetic_orders(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        errs = [3.0 * h**1.7 for h in hs]
        assert np.allclose(eoc_pairs(hs, errs), 1.7, atol=1e-12)
        assert all(type(order) is float for order in eoc_pairs(hs, errs))
        assert eoc_fit(hs, errs) == pytest.approx(1.7, abs=1e-12)


class TestCases:
    def test_unknown_case(self):
        with pytest.raises(KeyError):
            get_case("nope")

    def test_tuning_profile_oracle(self):
        y = np.array([0.0, 0.3, 0.5, 0.55, 0.7, 0.9])
        vals = tuning_inflow_profile(y)
        assert vals[0] == 0.0
        assert vals[1] == 1.0             # inside the square pulse
        assert vals[2] == 0.0             # gap between pulse and bump
        assert vals[3] == pytest.approx(0.0, abs=1e-15)  # cos(pi/2)^2
        assert vals[4] == pytest.approx(1.0, rel=1e-15)  # bump peak
        assert vals[5] == 0.0

    def test_tuning_case(self):
        case = get_case("tuning")
        assert case.spec.mu == 0.0
        bx, by = case.spec.beta(0.3, 0.8)
        assert (bx, by) == (0.8, -0.3)
        assert case.outflow_exact is tuning_inflow_profile
        # inflow data: profile on x=0, zero on y=1
        assert case.spec.ubar(0.0, 0.3) == 1.0
        assert case.spec.ubar(0.5, 1.0) == 0.0

    def test_smooth_case_solution_consistency(self):
        case = get_case("smooth", mu=1.0)
        x, y = 0.37, 0.81
        t = np.tan(np.pi / 3)
        assert case.exact(x, y) == pytest.approx(
            np.sin(2 * np.pi * (x - y / t)))
        # source = -mu laplacian(exact) since beta . grad(exact) = 0
        eps = 1e-5
        lap = (case.exact(x + eps, y) + case.exact(x - eps, y)
               + case.exact(x, y + eps) + case.exact(x, y - eps)
               - 4 * case.exact(x, y)) / eps**2
        assert case.spec.g(x, y) == pytest.approx(-lap, rel=1e-4)
        # convective term really vanishes
        bx, by = case.spec.beta(x, y)
        gx = (case.exact(x + eps, y) - case.exact(x - eps, y)) / (2 * eps)
        gy = (case.exact(x, y + eps) - case.exact(x, y - eps)) / (2 * eps)
        assert bx * gx + by * gy == pytest.approx(0.0, abs=1e-6)

    def test_smooth_case_pure_convection(self):
        case = get_case("smooth", mu=0.0)
        assert case.spec.g is None

    def test_sharp_layer_data_priorities(self):
        assert sharp_layer_data(0.0, 0.0) == 0.0   # y=0 wins over x=0
        assert sharp_layer_data(0.0, 1.0) == 1.0   # y=1 wins
        assert sharp_layer_data(0.0, 0.7) == pytest.approx(0.5)
        assert sharp_layer_data(1.0, 0.5) == 0.0
        assert sharp_layer_data(0.0, 0.9) == pytest.approx(1.0, abs=1e-3)

    def test_sharp_layer_params_quoted_directly(self):
        case = get_case("sharp-layer")
        assert case.params.sigma_h == 1e-2
        assert case.params.tau_h == 1e-4
        assert case.params.gamma == 1e-2
        # explicit dimensionless inputs switch back to the mesh scaling
        case2 = get_case("sharp-layer", sigma=1e-2)
        assert case2.params.sigma_h is None

    def test_three_body_initial_oracle(self):
        assert three_body_initial(0.5, 0.75) == 0.0    # inside the slot
        assert three_body_initial(0.6, 0.75) == 1.0    # cylinder body
        assert three_body_initial(0.5, 0.25) == 1.0    # cone peak
        assert three_body_initial(0.25, 0.5) == 0.5    # hump center
        assert three_body_initial(0.9, 0.1) == 0.0     # background
        x = np.linspace(0, 1, 101)
        vals = three_body_initial(*np.meshgrid(x, x))
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_three_body_case_defaults(self):
        case = get_case("three-body")
        assert case.params.gamma == 0.0
        assert case.params.Q == 10.0
        assert case.T == 1.0 and case.n_steps == 2000
        bx, by = case.spec.beta(0.5, 0.75)
        assert bx == pytest.approx(-2 * np.pi * 0.25)
        assert by == pytest.approx(0.0)
