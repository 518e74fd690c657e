"""Desk-scale generated problems and full-order truth solves.

Two families are provided, both posed on the unit square with homogeneous
Dirichlet conditions and bilinear (Q1) elements on a uniform grid:

* ``diffusion-spd``: piecewise-parameterized diffusion: the square is
  split into d+1 vertical strips, the first acting as an unparameterized
  background and the remaining d carrying coefficients xi_k on a
  log-uniform range [1e-1, 10].  The output extracts nodal values along
  the first interior grid row.  The model is symmetric coercive with
  R_V0 = A(xi_ref) at xi_ref = (1, ..., 1).

* ``advection-diffusion``: the same diffusion background plus d-1
  parameterized diffusivity strips and a first-order upwind discretization
  of a rotational advection field whose magnitude is the last parameter
  (linear range [0, 50], so the symmetric limit is inside the domain).
  The output takes l subdomain averages; the state Gram is the discrete
  H1 inner product (stiffness + mass).

Generation is deterministic: the same config and seed reproduce the model
bit-for-bit (the seed only places the load patch).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ._linalg import dense
from .affine import AffineForm, CoefficientFn, ParameterDomain
from .exceptions import SolverError
from .model import FullOrderModel

__all__ = [
    "ProblemConfig",
    "make_diffusion_problem",
    "make_advection_diffusion_problem",
    "make_problem",
    "compliant_variant",
    "truth_solve",
    "dual_truth_solve",
    "sample_parameters",
]

# Q1 element matrices on a square cell (node order SW, SE, NE, NW).
# The stiffness matrix is scale-invariant in 2-D; the mass matrix carries h^2.
_K_LOC = np.array(
    [[4, -1, -2, -1],
     [-1, 4, -1, -2],
     [-2, -1, 4, -1],
     [-1, -2, -1, 4]], dtype=float) / 6.0
_M_LOC = np.array(
    [[4, 2, 1, 2],
     [2, 4, 2, 1],
     [1, 2, 4, 2],
     [2, 1, 2, 4]], dtype=float) / 36.0


@dataclass(frozen=True)
class ProblemConfig:
    """Requested problem size; the grid rounds n to the nearest square."""

    n: int = 900
    d: int = 6
    l: int = 30
    seed: int = 0
    kind: str = "diffusion-spd"

    def __post_init__(self):
        if self.n < 16:
            raise ValueError("n must be at least 16")
        if not 1 <= self.d <= 10:
            raise ValueError("d must be in [1, 10]")
        if not 1 <= self.l <= self.n:
            raise ValueError("l must be in [1, n]")
        if self.kind not in ("diffusion-spd", "advection-diffusion"):
            raise ValueError(f"unknown problem kind {self.kind!r}")


class _Grid:
    """Uniform grid on the unit square; interior nodes only (Dirichlet-0)."""

    def __init__(self, n_request):
        self.c = int(round(np.sqrt(n_request))) + 1  # cells per side
        self.m = self.c - 1                          # interior nodes per side
        self.n = self.m * self.m
        self.h = 1.0 / self.c

    def node_index(self, i, j):
        """Interior node (i, j), 1-based grid coordinates; -1 if boundary."""
        if 1 <= i <= self.m and 1 <= j <= self.m:
            return (j - 1) * self.m + (i - 1)
        return -1

    def cell_nodes(self, ci, cj):
        """Global indices of the 4 nodes of cell (ci, cj), -1 for boundary."""
        return [
            self.node_index(ci, cj),
            self.node_index(ci + 1, cj),
            self.node_index(ci + 1, cj + 1),
            self.node_index(ci, cj + 1),
        ]

    def assemble_cells(self, cells, local):
        """Sparse sum of a 4x4 local matrix over the given cells."""
        rows, cols, vals = [], [], []
        for ci, cj in cells:
            nodes = self.cell_nodes(ci, cj)
            for a in range(4):
                if nodes[a] < 0:
                    continue
                for bb in range(4):
                    if nodes[bb] < 0:
                        continue
                    rows.append(nodes[a])
                    cols.append(nodes[bb])
                    vals.append(local[a, bb])
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()

    def cells_in_strip(self, k, nstrips):
        """Cells whose center x lies in vertical strip k of nstrips."""
        out = []
        for ci in range(self.c):
            cx = (ci + 0.5) / self.c
            if int(np.floor(cx * nstrips)) == k:
                out.extend((ci, cj) for cj in range(self.c))
        return out

    def load_patch(self, rng, side=0.25):
        """Unit source on a seeded square patch; Q1 load vector."""
        cx0, cy0 = rng.uniform(0.2, 0.8 - side, size=2)
        b = np.zeros(self.n)
        for ci in range(self.c):
            for cj in range(self.c):
                x = (ci + 0.5) / self.c
                y = (cj + 0.5) / self.c
                if cx0 <= x <= cx0 + side and cy0 <= y <= cy0 + side:
                    for node in self.cell_nodes(ci, cj):
                        if node >= 0:
                            b[node] += self.h * self.h / 4.0
        return b


def make_diffusion_problem(cfg):
    """Generate the symmetric coercive piecewise-diffusion model."""
    if cfg.kind != "diffusion-spd":
        raise ValueError("config kind must be 'diffusion-spd'")
    grid = _Grid(cfg.n)
    d = cfg.d
    if cfg.l > grid.m:
        raise ValueError(f"l={cfg.l} exceeds the {grid.m} nodes of the trace row")

    terms = [(CoefficientFn.constant(1.0),
              grid.assemble_cells(grid.cells_in_strip(0, d + 1), _K_LOC))]
    for k in range(1, d + 1):
        terms.append((CoefficientFn.component(k - 1, d),
                      grid.assemble_cells(grid.cells_in_strip(k, d + 1), _K_LOC)))
    A = AffineForm(terms)

    rng = np.random.default_rng(cfg.seed)
    b = AffineForm([(CoefficientFn.constant(1.0), grid.load_patch(rng))])

    # nodal trace along the first interior row
    cols = np.round(np.linspace(0, grid.m - 1, cfg.l)).astype(int)
    L = sp.coo_matrix(
        (np.ones(cfg.l), (np.arange(cfg.l), [grid.node_index(i + 1, 1) for i in cols])),
        shape=(cfg.l, grid.n),
    ).tocsr()
    Lform = AffineForm([(CoefficientFn.constant(1.0), L)])

    xi_ref = np.ones(d)
    gram_v0 = terms[0][1]
    for _, term in terms[1:]:
        gram_v0 = gram_v0 + term
    domain = ParameterDomain([0.1] * d, [10.0] * d, ("log",) * d)
    return FullOrderModel(
        A, b, Lform, gram_v0, np.eye(cfg.l), domain,
        symmetry="spd", xi_ref=xi_ref, coercive_affine=True,
    )


def make_advection_diffusion_problem(cfg):
    """Generate the nonsymmetric advection-diffusion model."""
    if cfg.kind != "advection-diffusion":
        raise ValueError("config kind must be 'advection-diffusion'")
    grid = _Grid(cfg.n)
    d = cfg.d
    if cfg.l > grid.m:
        raise ValueError(f"l={cfg.l} exceeds the {grid.m} interior columns")

    all_cells = [(ci, cj) for ci in range(grid.c) for cj in range(grid.c)]
    K_bg = grid.assemble_cells(all_cells, _K_LOC)
    terms = [(CoefficientFn.constant(1.0), K_bg)]
    nstrips = d - 1
    for k in range(nstrips):
        terms.append((CoefficientFn.component(k, d),
                      grid.assemble_cells(grid.cells_in_strip(k, nstrips), _K_LOC)))
    terms.append((CoefficientFn.component(d - 1, d), _upwind_advection(grid)))
    A = AffineForm(terms)

    rng = np.random.default_rng(cfg.seed)
    b = AffineForm([(CoefficientFn.constant(1.0), grid.load_patch(rng))])

    # l vertical-slab averages of the state
    rows, cols, vals = [], [], []
    for g in range(cfg.l):
        i_lo = (g * grid.m) // cfg.l
        i_hi = ((g + 1) * grid.m) // cfg.l
        nodes = [grid.node_index(i + 1, j + 1)
                 for i in range(i_lo, i_hi) for j in range(grid.m)]
        for node in nodes:
            rows.append(g)
            cols.append(node)
            vals.append(1.0 / len(nodes))
    L = sp.coo_matrix((vals, (rows, cols)), shape=(cfg.l, grid.n)).tocsr()
    Lform = AffineForm([(CoefficientFn.constant(1.0), L)])

    mass = grid.assemble_cells(all_cells, _M_LOC) * (grid.h * grid.h)
    gram_v0 = K_bg + mass
    lo = [0.1] * nstrips + [0.0]
    hi = [10.0] * nstrips + [50.0]
    scale = ("log",) * nstrips + ("linear",)
    xi_ref = np.array([1.0] * nstrips + [25.0])
    domain = ParameterDomain(lo, hi, scale)
    return FullOrderModel(
        A, b, Lform, gram_v0, np.eye(cfg.l), domain,
        symmetry="general", xi_ref=xi_ref, coercive_affine=False,
    )


def _upwind_advection(grid):
    """First-order upwind discretization of the rotational field
    v(x, y) = (y - 1/2, 1/2 - x), scaled by the cell area."""
    rows, cols, vals = [], [], []
    w = grid.h  # h^2 / h: area scaling over the difference quotient

    def add(r, c, v):
        if c >= 0:
            rows.append(r)
            cols.append(c)
            vals.append(v)

    for j in range(1, grid.m + 1):
        for i in range(1, grid.m + 1):
            node = grid.node_index(i, j)
            x, y = i * grid.h, j * grid.h
            vx, vy = y - 0.5, 0.5 - x
            if vx >= 0:
                add(node, node, w * vx)
                add(node, grid.node_index(i - 1, j), -w * vx)
            else:
                add(node, grid.node_index(i + 1, j), w * vx)
                add(node, node, -w * vx)
            if vy >= 0:
                add(node, node, w * vy)
                add(node, grid.node_index(i, j - 1), -w * vy)
            else:
                add(node, grid.node_index(i, j + 1), w * vy)
                add(node, node, -w * vy)
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.n, grid.n)).tocsr()


def make_problem(cfg):
    """Dispatch on ``cfg.kind``."""
    if cfg.kind == "diffusion-spd":
        return make_diffusion_problem(cfg)
    return make_advection_diffusion_problem(cfg)


def compliant_variant(model):
    """Replace the output by L = b^T (scalar-valued compliant configuration)."""
    Lterms = [(coeff, sp.csr_matrix(np.asarray(term).reshape(1, -1)))
              for coeff, term in model.b.terms]
    return FullOrderModel(
        model.A, model.b, AffineForm(Lterms), model.gram_v0, np.eye(1),
        model.domain, symmetry=model.symmetry, xi_ref=model.xi_ref,
        coercive_affine=model.coercive_affine,
    )


def truth_solve(model, xi, factorization=None):
    """Full-order solve: returns (u, s) with a residual acceptance check.

    One step of iterative refinement follows the solve: on the diffusion
    problems the sparse LU alone leaves s up to five times less accurate
    than a dense Cholesky solve, and s is the reference the reduced outputs
    are measured against.
    """
    A = model.operator_at(xi)
    bvec = model.rhs_at(xi)
    fact = factorization if factorization is not None else model.factorize_assembled(A)
    u = fact.solve(bvec)
    r = bvec - A @ u
    res = np.linalg.norm(r, np.inf)
    if res > 1e-10 * max(np.linalg.norm(bvec, np.inf), np.finfo(float).tiny):
        raise SolverError(f"truth solve residual {res:.3e} exceeds tolerance")
    u = u + fact.solve(r)
    s = model.output_at(xi) @ u
    return u, np.asarray(s).ravel()


def dual_truth_solve(model, xi, factorization=None):
    """Full-order dual solve A(xi)^T Q = L(xi)^T; returns Q of shape (n, l),
    refined like :func:`truth_solve`."""
    A = model.operator_at(xi)
    Lt = dense(model.output_at(xi)).T
    fact = factorization if factorization is not None else model.factorize_assembled(A)
    Q = fact.solve(Lt, transpose=True)
    R = Lt - A.T @ Q
    res = np.linalg.norm(R)
    if res > 1e-10 * max(np.linalg.norm(Lt), np.finfo(float).tiny):
        raise SolverError(f"dual truth solve residual {res:.3e} exceeds tolerance")
    return Q + fact.solve(R, transpose=True)


def sample_parameters(domain, count, seed):
    """Deterministic parameter sample respecting per-component scales."""
    rng = np.random.default_rng(seed)
    return domain.sample(count, rng)
