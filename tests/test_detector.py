"""Shock detector: smoothing primitives, configuration and detector values."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from dgmono import Mesh, StabilizationParams, alpha_all, build_dg_nodes, \
    build_structured_quad
from dgmono.assembly import BoundaryTrace, interpolate_boundary
from dgmono.detector import (DerivedScales, DetectorPass, abs_lower,
                             abs_upper, smax, ssgn, z_ramp)
from dgmono.mesh import symmetric_points_batch

from .oracles import PairDetector, reference_topology, support_nodes
from .test_mesh import VALENCE3_CELLS, VALENCE3_VERTICES, perturbed_mesh


class TestPrimitives:
    def test_oracles(self):
        assert abs_upper(3.0, 16.0) == pytest.approx(5.0, rel=1e-15)
        assert abs_lower(3.0, 16.0) == pytest.approx(9.0 / 5.0, rel=1e-15)
        assert smax(3.0, 4.0, 4.0) == pytest.approx(0.5 * np.sqrt(5) + 3.5,
                                                    rel=1e-15)
        assert ssgn(3.0, 16.0) == pytest.approx(3.0 / 5.0, rel=1e-15)

    def test_zero_smoothing_reduces_to_exact(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert np.array_equal(abs_upper(x, 0.0), np.abs(x))
        assert np.array_equal(abs_lower(x, 0.0), np.abs(x))
        assert np.array_equal(ssgn(x, 0.0), np.sign(x))
        assert np.array_equal(smax(x, 0.0, 0.0), np.maximum(x, 0.0))

    def test_ordering(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500) * 10
        y = rng.standard_normal(500) * 10
        tau = rng.uniform(0, 4, 500)
        assert np.all(abs_lower(x, tau) <= np.abs(x) + 1e-15)
        assert np.all(np.abs(x) <= abs_upper(x, tau) + 1e-15)
        assert np.all(smax(x, y, tau) >= np.maximum(x, y) - 1e-15)

    def test_z_ramp(self):
        assert z_ramp(0.0) == 0.0
        assert z_ramp(1.0) == 1.0
        assert z_ramp(0.5) == pytest.approx(0.75, rel=1e-15)
        assert np.all(z_ramp(np.array([1.0, 1.5, 80.0])) == 1.0)
        # C^1 at 1: slope vanishes
        eps = 1e-6
        assert abs(z_ramp(1.0) - z_ramp(1.0 - eps)) < 1e-11


class TestParams:
    def test_defaults(self):
        p = StabilizationParams()
        assert p.mode == "smoothed"
        assert (p.sigma, p.tau, p.gamma) == (1e-2, 1e-4, 1e-2)
        assert p.Q == 10.0 and p.q == 10.0

    def test_raw_defaults(self):
        p = StabilizationParams(mode="raw")
        assert (p.sigma, p.tau, p.gamma) == (0.0, 0.0, 0.0)
        assert np.isinf(p.Q)

    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizationParams(mode="bogus")
        with pytest.raises(ValueError):
            StabilizationParams(mode="raw", sigma=1e-2)
        with pytest.raises(ValueError):
            StabilizationParams(q=0.0)
        with pytest.raises(ValueError):
            StabilizationParams(tau=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("q", np.nan), ("Q", np.nan), ("q", -1.0), ("Q", 0.0),
        ("sigma", np.nan), ("tau", np.inf), ("gamma", np.nan),
        ("sigma_h", np.nan), ("tau_h", np.inf), ("gamma", -np.inf)])
    def test_validation_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            StabilizationParams(**{field: value})

    @pytest.mark.parametrize("field", ["enabled", "boundary_extrapolation"])
    @pytest.mark.parametrize("value", ["off", "false", 0, 1, None])
    def test_switches_must_be_bools(self, field, value):
        # "off" is a truthy string: accepted, it left the switch on
        with pytest.raises(ValueError, match=f"{field} must be a bool"):
            StabilizationParams(**{field: value})

    def test_infinite_exponents_accepted(self):
        p = StabilizationParams(q=np.inf, Q=np.inf)
        assert (p.q, p.Q) == (np.inf, np.inf)

    def test_derived_scaling(self):
        p = StabilizationParams(sigma=1e-2, tau=1e-4, gamma=1e-2)
        s = p.derived(h=0.1, beta_norm=3.0)
        assert s.sigma_h == pytest.approx(1e-2 * 9.0 * 0.1**4)
        assert s.tau_h == pytest.approx(1e-4 * 0.1**2)
        assert s.gamma_h == pytest.approx(1e-2)

    def test_direct_overrides_win(self):
        p = StabilizationParams(sigma_h=0.25, tau_h=0.5, gamma=0.75)
        s = p.derived(h=0.1, beta_norm=3.0)
        assert (s.sigma_h, s.tau_h, s.gamma_h) == (0.25, 0.5, 0.75)


def forced_extremum(nodes, rng, lo=False):
    u = rng.standard_normal(nodes.n_nodes)
    a = int(rng.integers(nodes.n_nodes))
    forced = np.union1d(nodes.neighbors(a), support_nodes(nodes, a))
    if lo:
        u[forced] = np.maximum(u[forced], u[a] + 0.1)
        u[a] -= 0.5
        tr = BoundaryTrace(values=np.full(nodes.n_boundary, u.max() + 1.0),
                           dirichlet=np.ones(nodes.n_boundary, bool))
    else:
        u[forced] = np.minimum(u[forced], u[a] - 0.1)
        u[a] += 0.5
        tr = BoundaryTrace(values=np.full(nodes.n_boundary, u.min() - 1.0),
                           dirichlet=np.ones(nodes.n_boundary, bool))
    return u, a, tr


class TestDetector:
    def setup_method(self):
        self.mesh = build_structured_quad(6, 5)
        self.nodes = build_dg_nodes(self.mesh)
        self.raw = StabilizationParams(mode="raw")
        self.smooth = StabilizationParams()
        self.sc_raw = self.raw.derived(self.mesh.h, 1.0)
        self.sc_smooth = self.smooth.derived(self.mesh.h, 1.0)

    def test_forced_extrema(self):
        rng = np.random.default_rng(7)
        for k in range(60):
            u, a, tr = forced_extremum(self.nodes, rng, lo=bool(k % 2))
            for p, s in ((self.raw, self.sc_raw), (self.smooth, self.sc_smooth)):
                al = alpha_all(self.nodes, u, tr, p, s)
                assert al[a] == 1.0
                assert np.all((al >= 0.0) & (al <= 1.0))

    def test_affine_states_inactive_raw(self):
        # gradient jumps vanish for globally affine u -> alpha = 0 away from
        # nodes whose terms are all zero (which also give alpha = 0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            c0, cx, cy = rng.standard_normal(3)
            xy = self.nodes.coords
            u = c0 + cx * xy[:, 0] + cy * xy[:, 1]
            tr = interpolate_boundary(
                self.nodes, lambda x, y: c0 + cx * x + cy * y)
            al = alpha_all(self.nodes, u, tr, self.raw, self.sc_raw)
            assert np.all(al == 0.0)

    def test_affine_states_inactive_raw_nearly_uniform_mesh(self):
        # interior vertices moved by 1e-10 h: a symmetric point near a vertex
        # lies just outside one of the cells there, whose clipped Q1 weights
        # would move it; that cell must not own it
        for seed in range(5):
            mesh = perturbed_mesh(2, 2, scale=1e-10, seed=seed)
            nodes = build_dg_nodes(mesh)
            c0, cx, cy = np.random.default_rng(seed).standard_normal(3)
            x, y = nodes.coords.T
            tr = interpolate_boundary(
                nodes, lambda x, y: c0 + cx * x + cy * y)
            al = alpha_all(nodes, c0 + cx * x + cy * y, tr, self.raw,
                           self.raw.derived(mesh.h, 1.0))
            assert np.all(al == 0.0)

    def test_non_finite_state_raises(self):
        u = np.zeros(self.nodes.n_nodes)
        u[3], u[7] = np.nan, np.inf
        for p, s in ((self.raw, self.sc_raw), (self.smooth, self.sc_smooth)):
            with pytest.raises(ValueError, match="2 non-finite entries"):
                alpha_all(self.nodes, u, None, p, s)
        with pytest.raises(ValueError, match="2 non-finite entries"):
            DetectorPass(self.nodes, u, None, self.smooth, self.sc_smooth)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(self.nodes.n_nodes)
        tr = interpolate_boundary(self.nodes, lambda x, y: np.sin(x + y))
        for p, s in ((self.raw, self.sc_raw), (self.smooth, self.sc_smooth)):
            a0 = alpha_all(self.nodes, u, tr, p, s)
            tr2 = BoundaryTrace(values=tr.values + 5.0, dirichlet=tr.dirichlet)
            a1 = alpha_all(self.nodes, u + 5.0, tr2, p, s)
            assert np.allclose(a0, a1, atol=1e-9)

    def test_scale_invariance_raw(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(self.nodes.n_nodes)
        tr = interpolate_boundary(self.nodes, lambda x, y: np.cos(3 * x) * y)
        a0 = alpha_all(self.nodes, u, tr, self.raw, self.sc_raw)
        tr2 = BoundaryTrace(values=7.0 * tr.values, dirichlet=tr.dirichlet)
        a1 = alpha_all(self.nodes, 7.0 * u, tr2, self.raw, self.sc_raw)
        assert np.allclose(a0, a1, atol=1e-12)

    def test_disabled(self):
        p = StabilizationParams(enabled=False)
        u = np.random.default_rng(4).standard_normal(self.nodes.n_nodes)
        assert np.all(alpha_all(self.nodes, u, None, p,
                                p.derived(self.mesh.h, 1.0)) == 0.0)

    def test_q_exponent_sharpened(self):
        # larger q can only decrease alpha (ratio in [0, 1])
        rng = np.random.default_rng(5)
        u = rng.standard_normal(self.nodes.n_nodes)
        p1 = StabilizationParams(mode="raw", q=1.0)
        p10 = StabilizationParams(mode="raw", q=10.0)
        a1 = alpha_all(self.nodes, u, None, p1, self.sc_raw)
        a10 = alpha_all(self.nodes, u, None, p10, self.sc_raw)
        assert np.all(a10 <= a1 + 1e-15)

    def test_smoothed_differentiable(self):
        # central differences of alpha w.r.t. one coefficient converge to a
        # stable derivative (second-order): slope test on three step sizes
        nodes = self.nodes
        rng = np.random.default_rng(6)
        u = rng.standard_normal(nodes.n_nodes)
        a = nodes.n_nodes // 2
        b = int(nodes.neighbors(a)[1])
        p, s = self.smooth, self.sc_smooth

        def f(t):
            v = u.copy()
            v[b] += t
            return alpha_all(nodes, v, None, p, s)[a]

        d = {}
        for h in (1e-4, 1e-5, 1e-6):
            d[h] = (f(h) - f(-h)) / (2 * h)
        assert d[1e-5] == pytest.approx(d[1e-6], rel=1e-4, abs=1e-10)

    def test_gradient_pair_coincident_oracle(self):
        mesh = build_structured_quad(2, 1, domain=((0, 0.2), (0, 0.1)))
        nodes = build_dg_nodes(mesh)
        # coincident duplicates at the shared vertex (0.1, 0)
        dups = [a for a in range(nodes.n_nodes)
                if np.allclose(nodes.coords[a], (0.1, 0.0))]
        a, b = dups
        u = np.zeros(nodes.n_nodes)
        u[b] = 1.0
        topo = nodes.pair_topology()
        pa, pb = nodes.adjacency_pairs()
        k = np.flatnonzero((pa == a) & (pb == b))
        assert len(k) == 1
        h_ab = 0.1  # both cells have h_K = sqrt(0.01)
        assert topo.pair_w[k[0]] == pytest.approx(1.0 / h_ab, rel=1e-13)
        # pair legs lead the detector's flat term layout; this one is
        # w (u_b - u_a), and in raw mode its magnitude enters the mean
        t_pair, _ = DetectorPass(nodes, u, None,
                                 StabilizationParams(mode="raw"),
                                 DerivedScales()).legs
        assert t_pair[k[0]] == pytest.approx(1.0 / h_ab, rel=1e-13)

    def test_perturbed_mesh_extrema(self):
        mesh = perturbed_mesh(5, 5, seed=9)
        nodes = build_dg_nodes(mesh)
        rng = np.random.default_rng(10)
        p = StabilizationParams()
        s = p.derived(mesh.h, 1.0)
        for k in range(20):
            u, a, tr = forced_extremum(nodes, rng, lo=bool(k % 2))
            assert alpha_all(nodes, u, tr, p, s)[a] == 1.0


def expand_per_pair(topo):
    """The grouped candidate arrays of ``topo`` expanded, through
    ``reg_group``, to one candidate set per regular node pair."""
    g = topo.reg_group
    counts = np.diff(topo.cand_ptr)[g]
    ptr = np.concatenate([[0], np.cumsum(counts)])
    take = (np.repeat(topo.cand_ptr[:-1][g] - ptr[:-1], counts)
            + np.arange(ptr[-1]))
    return {"reg_a": topo.grp_a[g], "reg_ws": topo.grp_ws[g], "cand_ptr": ptr,
            "cand_weights": topo.cand_weights[take],
            "cand_nodes": topo.cand_nodes[take],
            "cand_a": topo.cand_a[take]}


ORACLE_MESHES = pytest.mark.parametrize("mesh", [
    build_structured_quad(5, 4),
    perturbed_mesh(6, 6, scale=0.2, seed=5),
    Mesh(VALENCE3_VERTICES, VALENCE3_CELLS)],
    ids=["uniform", "jittered", "valence3"])


class TestPairTopology:
    @ORACLE_MESHES
    def test_matches_per_node_pair_reference(self, mesh):
        nodes = build_dg_nodes(mesh)
        topo = nodes.pair_topology()
        ref = reference_topology(nodes)
        assert len(ref["reg_a"]) and len(ref["dg_a"])
        grouped = expand_per_pair(topo)
        for name, want in ref.items():
            got = grouped[name] if name in grouped else getattr(topo, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert topo.w_max == max(ref["pair_w"].max(), ref["reg_ws"].max())

    @ORACLE_MESHES
    def test_groups_are_node_and_neighbour_vertex(self, mesh):
        nodes = build_dg_nodes(mesh)
        topo = nodes.pair_topology()
        pa, pb = nodes.adjacency_pairs()
        regular = nodes.node_vertex[pa] != nodes.node_vertex[pb]
        regular[topo.dg_pair] = False
        key = pa[regular] * mesh.n_vertices + nodes.node_vertex[pb[regular]]
        # one group per distinct (a, vertex of b), numbered in key order
        assert np.array_equal(np.unique(key, return_inverse=True)[1],
                              topo.reg_group)
        assert np.array_equal(topo.grp_a[topo.reg_group], pa[regular])
        assert np.array_equal(topo.cand_group, np.repeat(
            np.arange(len(topo.grp_a)), np.diff(topo.cand_ptr)))
        assert len(topo.grp_a) < np.count_nonzero(regular)

    @ORACLE_MESHES
    @pytest.mark.parametrize("mode", ["raw", "smoothed"])
    @pytest.mark.parametrize("extrapolation", [True, False],
                             ids=["extrapolated", "plain"])
    def test_pass_matches_per_node_pair_oracle(self, mesh, mode,
                                               extrapolation):
        nodes = build_dg_nodes(mesh)
        n = nodes.n_nodes
        p = StabilizationParams(mode=mode,
                                boundary_extrapolation=extrapolation)
        s = p.derived(mesh.h, 1.0)
        rng = np.random.default_rng(11)
        x, y = nodes.coords.T
        tr = interpolate_boundary(nodes, lambda x, y: np.sin(3 * x) * y)
        # a generic state, one with ties among candidate values, a smooth one
        states = [rng.standard_normal(n), np.round(rng.standard_normal(n), 1),
                  np.sin(4 * x) + y]
        for u in states:
            for trace in (None, tr):
                got = DetectorPass(nodes, u, trace, p, s)
                want = PairDetector(nodes, u, trace, p, s)
                assert np.array_equal(got.alpha, want.alpha)
                if mode == "smoothed":
                    # the package sums a group's symmetric legs first
                    g, w = got.jacobian().data, want.jacobian().data
                    assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()

    def test_valence3_support_width(self):
        nodes = build_dg_nodes(Mesh(VALENCE3_VERTICES, VALENCE3_CELLS))
        # the centre vertex lies in three cells, so the padded table is
        # three wide; every other vertex leaves pads
        assert nodes.vertex_cells_padded.shape == (7, 3)
        assert np.array_equal(np.sort(nodes.vertex_cells_padded[6]), [0, 1, 2])
        assert (nodes.vertex_cells_padded[:6] == -1).any(axis=1).all()


# -- property tests on random convex meshes -----------------------------------

@st.composite
def convex_meshes(draw):
    """A grid of 2..6 by 2..6 cells with interior vertices jittered by less
    than h/4 (every cell stays convex), or the valence-3 mesh with its centre
    vertex moved by up to 0.05."""
    if draw(st.booleans()):
        return perturbed_mesh(draw(st.integers(2, 6)), draw(st.integers(2, 6)),
                              scale=draw(st.floats(0.0, 0.24)),
                              seed=draw(st.integers(0, 2**16)))
    verts = np.array(VALENCE3_VERTICES, dtype=float)
    verts[6] += [draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.05, 0.05))]
    return Mesh(verts, VALENCE3_CELLS)


class TestDetectorProperties:
    @settings(max_examples=25, deadline=None, database=None)
    @given(mesh=convex_meshes(), seed=st.integers(0, 2**16))
    def test_random_convex_mesh(self, mesh, seed):
        nodes = build_dg_nodes(mesh)
        pa, pb = nodes.adjacency_pairs()
        other = nodes.node_vertex[pa] != nodes.node_vertex[pb]
        sb = symmetric_points_batch(nodes, pa[other], pb[other])
        # every symmetric point off the boundary has an owning cell
        assert sb.owner[~sb.degenerate].any(axis=1).all()
        nodes.pair_topology()

        rng = np.random.default_rng(seed)
        raw = StabilizationParams(mode="raw")
        smooth = StabilizationParams()
        modes = [(p, p.derived(mesh.h, 1.0)) for p in (raw, smooth)]
        c0, cx, cy = rng.standard_normal(3)
        x, y = nodes.coords.T
        tr = interpolate_boundary(nodes, lambda x, y: c0 + cx * x + cy * y)
        assert np.all(alpha_all(nodes, c0 + cx * x + cy * y, tr,
                                *modes[0]) == 0.0)
        for lo in (False, True):
            u, a, tr = forced_extremum(nodes, rng, lo=lo)
            for p, s in modes:
                assert alpha_all(nodes, u, tr, p, s)[a] == 1.0
