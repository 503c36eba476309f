"""Output writers: legacy VTK with duplicated dG points, CSV fields, operators."""

from __future__ import annotations

import csv

import numpy as np
import scipy.io
import scipy.sparse as sp


def write_vtk(mesh, u, path, name="u"):
    """Legacy VTK unstructured grid with one point per dG node, so facet
    discontinuities render faithfully."""
    nc = mesh.n_cells
    pts = mesh.vertices[mesh.cells.ravel()]  # (4 nc, 2)
    u = np.asarray(u, dtype=float).ravel()
    if len(u) != 4 * nc:
        raise ValueError("field length must be 4 x number of cells")
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("dG field\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {4 * nc} double\n")
        for x, y in pts:
            f.write(f"{x:.17g} {y:.17g} 0\n")
        f.write(f"CELLS {nc} {5 * nc}\n")
        for c in range(nc):
            f.write(f"4 {4 * c} {4 * c + 1} {4 * c + 2} {4 * c + 3}\n")
        f.write(f"CELL_TYPES {nc}\n")
        f.write("9\n" * nc)
        f.write(f"POINT_DATA {4 * nc}\n")
        f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        for v in u:
            f.write(f"{v:.17g}\n")


def write_field_csv(nodes, u, path):
    """Flat (x, y, cell, local, value) table; full precision round-trip."""
    u = np.asarray(u, dtype=float)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "cell", "local", "value"])
        for a in range(nodes.n_nodes):
            x, y = nodes.coords[a]
            w.writerow([repr(float(x)), repr(float(y)),
                        int(nodes.node_cell[a]),
                        int(nodes.node_local[a]), repr(float(u[a]))])


def read_field_csv(path):
    """Coefficient vector from a field CSV, ordered by dG node id."""
    cells, locals_, vals = [], [], []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            cells.append(int(row["cell"]))
            locals_.append(int(row["local"]))
            vals.append(float(row["value"]))
    cells = np.asarray(cells, dtype=np.int64)
    locals_ = np.asarray(locals_, dtype=np.int64)
    bad = (cells < 0) | (locals_ < 0) | (locals_ > 3)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"{path}: no dG node (cell {cells[i]}, local "
                         f"{locals_[i]}); cell must be >= 0 and local 0..3")
    ids = 4 * cells + locals_
    if not np.array_equal(np.sort(ids), np.arange(len(ids))):
        raise ValueError(f"{path} does not list each node id "
                         f"0..{len(ids) - 1} exactly once")
    u = np.empty(len(ids))
    u[ids] = vals
    return u


def write_operator(A, path):
    """MatrixMarket coordinate export."""
    scipy.io.mmwrite(path, sp.coo_matrix(A))


def read_operator(path):
    return sp.csr_matrix(scipy.io.mmread(path))


def write_audit_csv(report, path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["row", "condition", "magnitude"])
        for rec in report:
            w.writerow([rec["row"], rec["condition"],
                        repr(float(rec["magnitude"]))])


def write_table_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, float) else v
                        for v in row])
