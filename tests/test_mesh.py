"""Mesh construction, facet topology, node sets and symmetric points."""

import numpy as np
import pytest

from dgmono import (Mesh, MeshError, ProblemSpec, StabilizationParams,
                    build_dg_nodes, build_structured_quad, classify_facets,
                    load_mesh, save_mesh)
from dgmono.mesh import symmetric_points_batch
from dgmono.stabilization import StabilizedProblem

from .oracles import (cell_polygon, support, support_nodes, support_vertices,
                      symmetric_point)


# a triangle split into three quads around a valence-3 interior vertex (6)
VALENCE3_VERTICES = [[0, 0], [1, 0], [.5, .9], [.5, 0], [.75, .45],
                     [.25, .45], [.5, .3]]
VALENCE3_CELLS = [[0, 3, 6, 5], [3, 1, 4, 6], [6, 4, 2, 5]]

# counter-clockwise quad of positive area with a reflex corner at (0.5, 1)
DART_VERTICES = [[0, 0], [2, 1], [0, 2], [0.5, 1]]


def perturbed_mesh(nx, ny, scale=0.15, seed=3):
    """Structured mesh with randomly shifted interior vertices."""
    mesh = build_structured_quad(nx, ny)
    rng = np.random.default_rng(seed)
    verts = mesh.vertices.copy()
    interior = ~mesh.boundary_vertex_mask
    h = 1.0 / max(nx, ny)
    verts[interior] += scale * h * rng.uniform(-1, 1, (interior.sum(), 2))
    return Mesh(verts, mesh.cells)


class TestStructuredQuad:
    def test_counts_2x2(self):
        mesh = build_structured_quad(2, 2)
        assert mesh.n_cells == 4
        assert mesh.n_vertices == 9
        assert mesh.n_interior_facets == 4
        assert mesh.n_boundary_facets == 8

    def test_single_cell(self):
        mesh = build_structured_quad(1, 1)
        assert mesh.n_cells == 1
        assert mesh.n_interior_facets == 0
        assert mesh.n_boundary_facets == 4

    def test_uniform_cell_size(self):
        mesh = build_structured_quad(100, 100)
        assert np.allclose(mesh.h_cell, 0.01, rtol=1e-14)
        assert mesh.h == pytest.approx(0.01)

    def test_area(self):
        mesh = build_structured_quad(3, 5, domain=((0, 2), (0, 1)))
        assert mesh.area == pytest.approx(2.0)

    def test_invalid_counts(self):
        with pytest.raises(MeshError):
            build_structured_quad(0, 3)
        with pytest.raises(MeshError):
            build_structured_quad(2, 2, domain=((0, 0), (0, 1)))

    def test_clockwise_cell_rejected(self):
        verts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        with pytest.raises(MeshError):
            Mesh(verts, [[0, 3, 2, 1]])

    def test_nonconvex_cell_rejected(self):
        p = np.array(DART_VERTICES, dtype=float)
        area = 0.5 * np.sum(p[:, 0] * np.roll(p[:, 1], -1)
                            - np.roll(p[:, 0], -1) * p[:, 1])
        assert area > 0
        with pytest.raises(MeshError, match="convex"):
            Mesh(p, [[0, 1, 2, 3]])

    @pytest.mark.parametrize("bad", [-1, 9])
    def test_vertex_id_out_of_range(self, bad):
        verts = [[0.0, 0], [1, 0], [1, 1], [0, 1]]
        with pytest.raises(MeshError, match=f"vertex id {bad} out of range"):
            Mesh(verts, [[0, 1, 2, bad]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_vertex_rejected(self, bad):
        verts = [[0.0, 0], [1, 0], [1, 1], [bad, 1]]
        with pytest.raises(MeshError, match="vertex 3 is not finite"):
            Mesh(verts, [[0, 1, 2, 3]])

    def test_no_cells_rejected(self):
        with pytest.raises(MeshError, match="cell list is empty"):
            Mesh(np.zeros((3, 2)), np.zeros((0, 4), int))

    def test_facet_run_in_same_direction_rejected(self):
        # both cells lie above the edge 0 -> 1 and overlap
        verts = [[0, 0], [1, 0], [1, 1], [0, 1], [1, .5], [0, .5]]
        with pytest.raises(MeshError, match="same direction"):
            Mesh(verts, [[0, 1, 2, 3], [0, 1, 4, 5]])

    def test_cells_row_major(self):
        nx, ny = 3, 2
        mesh = build_structured_quad(nx, ny)
        ref = [[j * (nx + 1) + i, j * (nx + 1) + i + 1,
                (j + 1) * (nx + 1) + i + 1, (j + 1) * (nx + 1) + i]
               for j in range(ny) for i in range(nx)]
        assert mesh.cells.dtype == np.int64
        assert np.array_equal(mesh.cells, ref)


class TestFacets:
    def test_normals_unit_and_outward(self):
        mesh = perturbed_mesh(4, 3)
        for facets in (mesh.interior_facets, mesh.boundary_facets):
            n = facets["normal"]
            assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0, atol=1e-14)
        # boundary normals point away from the domain centroid
        fb = mesh.boundary_facets
        mid = 0.5 * (mesh.vertices[fb["v0"]] + mesh.vertices[fb["v1"]])
        assert np.all(np.einsum("fd,fd->f", mid - 0.5, fb["normal"]) > 0)

    def test_boundary_lengths_sum_to_perimeter(self):
        mesh = build_structured_quad(5, 7)
        assert mesh.boundary_facets["length"].sum() == pytest.approx(4.0)

    def test_interior_facet_owners_differ(self):
        mesh = build_structured_quad(3, 3)
        fi = mesh.interior_facets
        assert np.all(fi["cell_plus"] != fi["cell_minus"])
        # shared edge endpoints belong to both cells
        for k in range(mesh.n_interior_facets):
            for v in (fi["v0"][k], fi["v1"][k]):
                assert v in mesh.cells[fi["cell_plus"][k]]
                assert v in mesh.cells[fi["cell_minus"][k]]

    @staticmethod
    def reference_facets(mesh):
        """Facets from a dict over edges in cell order: interior facets
        (cell_plus, cell_minus, edge_plus, edge_minus, v0, v1) and boundary
        facets (cell, edge, v0, v1), each in order of first appearance."""
        owners = {}
        for c, cell in enumerate(mesh.cells.tolist()):
            for e in range(4):
                v0, v1 = cell[e], cell[(e + 1) % 4]
                owners.setdefault((min(v0, v1), max(v0, v1)), []).append((c, e))
        interior, boundary = [], []
        for own in owners.values():
            c0, e0 = own[0]
            v = (mesh.cells[c0, e0], mesh.cells[c0, (e0 + 1) % 4])
            if len(own) == 2:
                interior.append((c0, own[1][0], e0, own[1][1]) + v)
            else:
                boundary.append((c0, e0) + v)
        return (np.array(interior, dtype=np.int64).reshape(-1, 6),
                np.array(boundary, dtype=np.int64).reshape(-1, 4))

    @pytest.mark.parametrize("mesh", [
        build_structured_quad(1, 1), build_structured_quad(4, 3),
        perturbed_mesh(5, 4, scale=0.2, seed=7),
        Mesh(VALENCE3_VERTICES, VALENCE3_CELLS)],
        ids=["1x1", "4x3", "jittered", "valence3"])
    def test_facets_match_edge_dict(self, mesh):
        interior, boundary = self.reference_facets(mesh)
        fi, fb = mesh.interior_facets, mesh.boundary_facets
        for j, k in enumerate(("cell_plus", "cell_minus", "edge_plus",
                               "edge_minus", "v0", "v1")):
            assert fi[k].dtype == np.int64
            assert np.array_equal(fi[k], interior[:, j])
        for j, k in enumerate(("cell", "edge", "v0", "v1")):
            assert fb[k].dtype == np.int64
            assert np.array_equal(fb[k], boundary[:, j])

    def test_facet_shared_by_three_cells_rejected(self):
        # two cells above the edge (0,0)-(1,0), one below
        verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0, -1], [1, -1],
                 [1, 2], [0, 2]]
        with pytest.raises(MeshError, match="more than two"):
            Mesh(verts, [[0, 1, 2, 3], [4, 5, 1, 0], [0, 1, 6, 7]])


class TestClassifyFacets:
    def test_rotation_inflow_sides(self):
        mesh = build_structured_quad(4, 4)
        inflow = classify_facets(mesh, lambda x, y: (y, -x))
        fb = mesh.boundary_facets
        mid = 0.5 * (mesh.vertices[fb["v0"]] + mesh.vertices[fb["v1"]])
        # beta=(y,-x): inflow at x=0 and y=1, outflow at x=1 and y=0
        assert inflow.dtype == bool
        assert np.array_equal(inflow,
                              (mid[:, 0] < 1e-12) | (mid[:, 1] > 1 - 1e-12))

    def test_constant_velocity_component(self):
        # beta = (1, x/2): the constant component is broadcast as in the
        # assembly; inflow on x = 0 and on y = 0, where beta.n = -x/2 < 0
        mesh = build_structured_quad(3, 3)
        beta = lambda x, y: (1.0, 0.5 * x)  # noqa: E731
        inflow = classify_facets(mesh, beta)
        fb = mesh.boundary_facets
        mid = 0.5 * (mesh.vertices[fb["v0"]] + mesh.vertices[fb["v1"]])
        assert np.array_equal(inflow,
                              (mid[:, 0] < 1e-12) | (mid[:, 1] < 1e-12))
        prob = StabilizedProblem(mesh, build_dg_nodes(mesh),
                                 ProblemSpec(beta=beta, ubar=lambda x, y: x),
                                 StabilizationParams())
        assert 1.0 < prob.beta_norm < np.hypot(1.0, 0.5)

    def test_mixed_sign_facet_rejected(self):
        mesh = build_structured_quad(2, 2)
        with pytest.raises(MeshError, match="mixed"):
            classify_facets(mesh, lambda x, y: (np.ones_like(x), 4 * (x - 0.25)))


class TestDgNodeSet:
    def test_node_indexing(self):
        mesh = build_structured_quad(3, 2)
        nodes = build_dg_nodes(mesh)
        assert nodes.n_nodes == 4 * mesh.n_cells
        a = 4 * 4 + 2  # cell 4, local 2
        assert nodes.node_cell[a] == 4
        assert nodes.node_local[a] == 2
        assert np.allclose(nodes.coords[a],
                           mesh.vertices[mesh.cells[4, 2]])

    def test_lumped_weights_partition(self):
        mesh = perturbed_mesh(5, 4)
        nodes = build_dg_nodes(mesh)
        assert nodes.m.sum() == pytest.approx(mesh.area, rel=1e-12)
        assert np.all(nodes.m > 0)

    def test_lumped_weight_uniform(self):
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        h = 0.25
        assert np.allclose(nodes.m, h * h / 4.0, rtol=1e-13)

    def test_adjacency_symmetric(self):
        mesh = perturbed_mesh(4, 4)
        nodes = build_dg_nodes(mesh)
        for a in range(0, nodes.n_nodes, 7):
            for b in nodes.neighbors(a):
                assert a in nodes.neighbors(b)

    def test_interior_node_neighbor_count(self):
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        # interior vertex: 4 owning cells, 9 support vertices
        interior = [a for a in range(nodes.n_nodes)
                    if not nodes.boundary_mask[a]
                    and len(support(nodes, a)) == 4]
        a = interior[0]
        assert len(support_vertices(nodes, a)) == 9
        # 4 corner vertices x 4 dupes + 4 edge vertices x ... counted directly
        counts = [len(np.flatnonzero(nodes.node_vertex == v))
                  for v in support_vertices(nodes, a)]
        assert len(nodes.neighbors(a)) == sum(counts)


    @pytest.mark.parametrize("mesh", [
        perturbed_mesh(4, 3), Mesh(VALENCE3_VERTICES, VALENCE3_CELLS)],
        ids=["jittered", "valence3"])
    def test_queries_match_brute_force(self, mesh):
        nodes = build_dg_nodes(mesh)
        for a in range(nodes.n_nodes):
            v = nodes.node_vertex[a]
            cells = [c for c in range(mesh.n_cells) if v in mesh.cells[c]]
            verts = sorted(set(mesh.cells[cells].ravel().tolist()))
            near = [b for b in range(nodes.n_nodes)
                    if nodes.node_vertex[b] in verts]
            assert support(nodes, a) == cells
            assert np.array_equal(support_vertices(nodes, a), verts)
            assert np.array_equal(nodes.neighbors(a), near)
            assert np.array_equal(support_nodes(nodes, a), [
                4 * c + i for c in cells for i in range(4)])


PATTERN_MESHES = [build_structured_quad(4, 3), perturbed_mesh(5, 4, 0.2),
                  Mesh(VALENCE3_VERTICES, VALENCE3_CELLS)]


class TestNodePattern:
    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_pattern_and_slot_maps(self, mesh):
        nodes = build_dg_nodes(mesh)
        S = nodes.pattern
        n = nodes.n_nodes
        rows = np.repeat(np.arange(n), np.diff(S.indptr))
        for a in range(n):
            near = np.isin(nodes.node_vertex, support_vertices(nodes, a))
            assert np.array_equal(S.indices[S.indptr[a]:S.indptr[a + 1]],
                                  np.flatnonzero(near))
        assert S.nnz == len(S.indices) == S.indptr[-1]
        assert S.indptr.dtype == S.indices.dtype == np.int32
        assert np.array_equal(rows[S.pairs], S.pair_rows)
        assert np.array_equal(S.indices[S.pairs], S.pair_cols)
        assert np.array_equal(rows[S.diag], np.arange(n))
        assert np.array_equal(S.indices[S.diag], np.arange(n))
        assert np.array_equal(S.rows, rows)

    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_slots_match_dict_oracle(self, mesh):
        nodes = build_dg_nodes(mesh)
        S = nodes.pattern
        rows = np.repeat(np.arange(nodes.n_nodes), np.diff(S.indptr))
        oracle = {(int(r), int(c)): k
                  for k, (r, c) in enumerate(zip(rows, S.indices))}
        assert np.array_equal(S.slots(rows, S.indices), np.arange(S.nnz))
        # S is symmetric: every transposed entry is in it too
        assert np.array_equal(S.slots(S.indices, rows),
                              [oracle[int(c), int(r)]
                               for r, c in zip(rows, S.indices)])
        # the four nodes of every cell at a node's vertex are consecutive
        # in the node's row (the detector's candidate slots rely on it)
        vc = nodes.vertex_cells_padded[nodes.node_vertex]
        a, local = np.nonzero(vc >= 0)
        cell_nodes = 4 * vc[a, local, None] + np.arange(4)
        first = S.slots(a, cell_nodes[:, 0])
        assert np.array_equal(first[:, None] + np.arange(4),
                              [[oracle[int(r), int(c)] for c in cn]
                               for r, cn in zip(a, cell_nodes)])

    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_slots_outside_pattern_raise(self, mesh):
        nodes = build_dg_nodes(mesh)
        S = nodes.pattern
        r, c = np.argwhere(S.matrix(np.ones(S.nnz)).toarray() == 0)[-1]
        with pytest.raises(ValueError, match="not in the node pattern"):
            S.slots([r], [c])
        # one entry outside S among entries inside it
        with pytest.raises(ValueError, match=f"entry \\({r}, {c}\\)"):
            S.slots([0, r, 0], [0, c, 1])

    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_slots_of_no_entries(self, mesh):
        S = build_dg_nodes(mesh).pattern
        for empty in ([], np.zeros(0, dtype=np.int64)):
            got = S.slots(empty, empty)
            assert isinstance(got, np.ndarray)
            assert got.shape == (0,)
            assert np.issubdtype(got.dtype, np.integer)

    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_adjacency_pair_order(self, mesh):
        # the detector's sums run in this order: S's off-diagonal entries,
        # (row, column) in CSR order
        nodes = build_dg_nodes(mesh)
        S = nodes.pattern
        rows = np.repeat(np.arange(nodes.n_nodes), np.diff(S.indptr))
        off = rows != S.indices
        assert np.array_equal(S.pair_rows, rows[off])
        assert np.array_equal(S.pair_cols, S.indices[off])
        # intp: NumPy converts other index types on every fancy index
        assert S.pair_rows.dtype == S.pair_cols.dtype == np.intp

    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_unordered_pairs_and_transposes(self, mesh):
        nodes = build_dg_nodes(mesh)
        S = nodes.pattern
        ref = [(a, int(b)) for a in range(nodes.n_nodes)
               for b in nodes.neighbors(a) if b > a]
        assert list(zip(S.upper_rows.tolist(), S.upper_cols.tolist())) == ref
        assert S.upper_rows.dtype == S.upper_cols.dtype == np.intp
        assert np.array_equal(S.rows[S.upper], S.upper_rows)
        assert np.array_equal(S.indices[S.upper], S.upper_cols)
        # lower holds the transposed entries (b, a)
        assert np.array_equal(S.indices[S.lower], S.rows[S.upper])
        assert np.array_equal(S.rows[S.lower], S.indices[S.upper])

    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_scatter_sums_in_input_order(self, mesh):
        nodes = build_dg_nodes(mesh)
        S = nodes.pattern
        rng = np.random.default_rng(4)
        k = rng.integers(0, S.nnz, size=3 * S.nnz)
        vals = rng.standard_normal(len(k))
        ref = np.zeros(S.nnz)
        np.add.at(ref, k, vals)
        got = S.scatter(S.rows[k], S.indices[k], vals)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)
        # broadcast entries: a unit block per cell
        cells = np.arange(nodes.n_nodes).reshape(-1, 4)
        ones = S.scatter(cells[:, :, None], cells[:, None, :], 1.0)
        ref = np.zeros(S.nnz)
        ref[S.slots(np.repeat(cells, 4, axis=1).ravel(),
                    np.tile(cells, 4).ravel())] = 1.0
        assert np.array_equal(ones, ref)

    @pytest.mark.parametrize("mesh", PATTERN_MESHES,
                             ids=["uniform", "jittered", "valence3"])
    def test_scatter_outside_pattern(self, mesh):
        S = build_dg_nodes(mesh).pattern
        r, c = np.argwhere(S.matrix(np.ones(S.nnz)).toarray() == 0)[-1]
        # an exact zero outside S is dropped
        got = S.scatter([0, r, 0], [0, c, 0], [1.0, 0.0, 2.0])
        ref = np.zeros(S.nnz)
        ref[S.slots([0], [0])] = 3.0
        assert np.array_equal(got, ref)
        # any other value outside S raises
        with pytest.raises(ValueError, match=f"entry \\({r}, {c}\\) is not"):
            S.scatter([0, r], [0, c], [1.0, -1e-300])

    def test_scatter_of_zeros_is_float64(self):
        S = build_dg_nodes(build_structured_quad(2, 2)).pattern
        for idx, vals in (([], []), ([0, 1], 0.0),
                          (np.zeros(0, dtype=np.int64), np.zeros(0))):
            got = S.scatter(idx, idx, vals)
            assert got.dtype == np.float64
            assert np.array_equal(got, np.zeros(S.nnz))

    def test_shared_structure_is_read_only(self):
        S = build_dg_nodes(build_structured_quad(2, 2)).pattern
        A = S.matrix(np.ones(S.nnz))
        with pytest.raises(ValueError):
            A.indices[0] = 1


class TestSymmetricPoint:
    def test_interior_central_symmetry(self):
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        a = [x for x in range(nodes.n_nodes) if len(support(nodes, x)) == 4][0]
        xa = nodes.coords[a]
        for b in nodes.neighbors(a):
            if b == a or np.allclose(nodes.coords[b], xa):
                continue
            sp = symmetric_point(nodes, a, b)
            if not sp.degenerate:
                xb = nodes.coords[b]
                if np.hypot(*(xb - xa)) <= 0.25 * np.sqrt(2) + 1e-12:
                    assert np.allclose(sp.point, 2 * xa - xb, atol=1e-13)
                    assert sp.distance == pytest.approx(np.hypot(*(xb - xa)))

    def test_boundary_degenerate(self):
        mesh = build_structured_quad(2, 2)
        nodes = build_dg_nodes(mesh)
        # corner node at (0,0): every ray away from an interior b exits at once
        a = int(np.flatnonzero((nodes.coords == 0).all(axis=1))[0])
        hits = 0
        for b in nodes.neighbors(a):
            if b == a or np.allclose(nodes.coords[b], nodes.coords[a]):
                continue
            sp = symmetric_point(nodes, a, b)
            assert sp.degenerate
            hits += 1
        assert hits > 0

    def test_collinearity(self):
        mesh = perturbed_mesh(3, 3)
        nodes = build_dg_nodes(mesh)
        for a in range(0, nodes.n_nodes, 5):
            xa = nodes.coords[a]
            for b in nodes.neighbors(a):
                if b == a or np.allclose(nodes.coords[b], xa):
                    continue
                sp = symmetric_point(nodes, a, b)
                if sp.degenerate:
                    continue
                r_ab = nodes.coords[b] - xa
                cross = abs(sp.r_sym[0] * r_ab[1] - sp.r_sym[1] * r_ab[0])
                assert cross <= 1e-12 * (r_ab @ r_ab)

    def test_batch_matches_scalar(self):
        # the uniform grid puts symmetric points exactly on edges and
        # corners, where several cells own them; the valence-3 mesh is the
        # one the detector property test draws, as is and with its centre
        # moved
        for mesh in (perturbed_mesh(4, 3, seed=11), build_structured_quad(4, 3),
                     Mesh(VALENCE3_VERTICES, VALENCE3_CELLS),
                     Mesh(np.add(VALENCE3_VERTICES,
                                 [[0, 0]] * 6 + [[0.03, -0.02]]),
                          VALENCE3_CELLS)):
            nodes = build_dg_nodes(mesh)
            pa, pb = [], []
            for a in range(nodes.n_nodes):
                for b in nodes.neighbors(a):
                    if b != a and not np.allclose(nodes.coords[b],
                                                  nodes.coords[a]):
                        pa.append(a)
                        pb.append(b)
            batch = symmetric_points_batch(nodes, pa, pb)
            for i in range(len(pa)):
                sp = symmetric_point(nodes, pa[i], pb[i])
                assert sp.degenerate == bool(batch.degenerate[i])
                if not sp.degenerate:
                    assert np.allclose(sp.point, batch.point[i], atol=1e-12)
                    owners = sorted(batch.cells[i][batch.owner[i]].tolist())
                    assert sorted(sp.cells) == owners

    def test_point_on_support_boundary(self):
        mesh = build_structured_quad(3, 3)
        nodes = build_dg_nodes(mesh)
        a = [x for x in range(nodes.n_nodes) if len(support(nodes, x)) == 4][0]
        for b in nodes.neighbors(a):
            if b == a or np.allclose(nodes.coords[b], nodes.coords[a]):
                continue
            sp = symmetric_point(nodes, a, b)
            if sp.degenerate:
                continue
            # owning cells must actually contain the point
            for c in sp.cells:
                poly = cell_polygon(mesh, c)
                assert (sp.point >= poly.min(axis=0) - 1e-10).all()
                assert (sp.point <= poly.max(axis=0) + 1e-10).all()


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = perturbed_mesh(3, 4)
        path = tmp_path / "mesh.txt"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.cells, mesh.cells)
        assert np.allclose(back.vertices, mesh.vertices, rtol=0, atol=1e-15)

    def test_nonconvex_file_rejected(self, tmp_path):
        path = tmp_path / "dart.txt"
        path.write_text("# dgmono mesh v1\n4 1\n"
                        + "".join(f"{x} {y}\n" for x, y in DART_VERTICES)
                        + "0 1 2 3\n")
        with pytest.raises(MeshError, match="convex"):
            load_mesh(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# dgmono mesh v1\n4 1\n0 0\n1 0\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_vertex_id_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 9\n")
        with pytest.raises(MeshError, match="vertex id 9 out of range"):
            load_mesh(path)

    @pytest.mark.parametrize("text", [
        "", "# dgmono mesh v1\n", "4\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n",
        "4 1 0\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n",
        "four one\n0 0\n1 0\n1 1\n0 1\n0 1 2 3\n"],
        ids=["empty", "comment-only", "one-count", "three-counts",
             "not-integers"])
    def test_bad_header(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshError, match="header"):
            load_mesh(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_vertex_file_rejected(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"4 1\n0 0\n1 0\n{value} 1\n0 1\n0 1 2 3\n")
        with pytest.raises(MeshError, match="vertex 2 is not finite"):
            load_mesh(path)

    @pytest.mark.parametrize("text, line", [
        ("4 1\n0 0\n1\n1 1\n0 1\n0 1 2 3\n", 3),
        ("4 1\n0 0\n1 0 0\n1 1\n0 1\n0 1 2 3\n", 3),
        ("4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2\n", 6),
        ("# c\n4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 3 0\n", 7),
        ("4 1\n0 0\n1 zero\n1 1\n0 1\n0 1 2 3\n", 3),
        ("4 1\n0 0\n1 0\n1 1\n0 1\n0 1 2 3.5\n", 6)],
        ids=["vertex-short", "vertex-long", "cell-short", "cell-long",
             "vertex-not-a-number", "cell-not-an-integer"])
    def test_wrong_token_count(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(MeshError, match=f"line {line}: "):
            load_mesh(path)
