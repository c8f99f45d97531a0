"""Structure-reconstruction path.

Known edges are diffused with Personalized PageRank, giving each node a
dense influence row that reaches beyond the (possibly missing) immediate
neighborhood.  The diffusion is sparsified to the top k entries per row and
used both as a propagation operator and as a per-node structure descriptor.
Node inputs for this path are learned positional embeddings, since feature
attributes may be missing; two propagation layers turn them into node
representations in the original feature dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .autodiff import ShapeError, Tensor, add_rowvec, matmul, mul, propagate, relu
from .nn import ParamStore, dropout_mask


@dataclass(frozen=True)
class PPRConfig:
    """Diffusion settings: reset probability, sparsity, solver choice."""

    alpha: float = 0.1
    k: int = 20
    method: str = "closed_form"
    tol: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha {self.alpha} outside (0, 1)")
        if self.k < 0:
            raise ValueError(f"k {self.k} negative")
        if self.method not in ("closed_form", "power_iteration"):
            raise ValueError(f"unknown PPR method {self.method!r}")
        if self.tol <= 0:
            raise ValueError(f"tol {self.tol} must be positive")


@dataclass(frozen=True)
class PowerIterationResult:
    matrix: np.ndarray
    iterations: int
    converged: bool


def normalize_adjacency(edges: np.ndarray, n: int, sparse: bool = False):
    """Symmetric normalization of the self-looped adjacency.

    Returns D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I.
    Spectral radius is at most 1, which makes the diffusion below converge.
    Isolated nodes keep degree 1 from the self-loop.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    vals = np.ones(rows.size)
    a_loop = sp.csr_array((vals, (rows, cols)), shape=(n, n))
    inv_sqrt = 1.0 / np.sqrt(np.asarray(a_loop.sum(axis=1)).ravel())
    norm = sp.diags_array(inv_sqrt) @ a_loop @ sp.diags_array(inv_sqrt)
    return sp.csr_array(norm) if sparse else norm.toarray()


def ppr_closed_form(a_norm: np.ndarray, alpha: float) -> np.ndarray:
    """Exact diffusion: alpha * (I - (1-alpha) * a_norm)^{-1}.

    With a_norm symmetric of spectrum in [-1, 1] (normalize_adjacency) the system
    is positive definite, eigenvalues in [alpha, 2 - alpha], so it is inverted
    through a Cholesky factor of its upper triangle and mirrored exactly symmetric.
    """
    from scipy.linalg import lapack  # imported on first use: it adds ~0.1 s to package import
    a_norm = np.asarray(a_norm, dtype=np.float64)
    n = a_norm.shape[0]
    system = np.eye(n) - (1.0 - alpha) * a_norm
    factor, info = lapack.dpotrf(system, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"PPR system is not positive definite (potrf info={info}); "
                                    "a_norm must be a symmetric normalized adjacency")
    out = alpha * np.triu(lapack.dpotri(factor, overwrite_c=True)[0])
    out += np.triu(out, 1).T
    # the series expansion is nonnegative; clip roundoff dust
    return np.maximum(out, 0.0, out=out)


def ppr_power_iteration(a_norm: np.ndarray, alpha: float,
                        tol: float = 1e-8, max_iter: int = 1000) -> PowerIterationResult:
    """Iterative diffusion: A_{t+1} = (1-alpha) * a_norm @ A_t + alpha * I from I.

    Stops when the largest entry change drops below tol.  Hitting max_iter
    first returns the current iterate flagged as unconverged.
    """
    a_norm = np.asarray(a_norm, dtype=np.float64)
    n = a_norm.shape[0]
    eye = np.eye(n)
    current = eye.copy()
    for it in range(1, max_iter + 1):
        nxt = (1.0 - alpha) * (a_norm @ current) + alpha * eye
        delta = np.abs(nxt - current).max()
        current = nxt
        if delta < tol:
            return PowerIterationResult(current, it, True)
    warnings.warn(f"diffusion did not reach tol={tol} in {max_iter} iterations")
    return PowerIterationResult(current, max_iter, False)


def knn_sparsify(matrix: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest entries of each row, zeroing the rest.

    No renormalization.  Ties break toward the smaller column index; the
    self column competes like any other.  k of at least n keeps everything.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    m = matrix.shape[1]
    if k < 1:
        raise ValueError(f"k {k} must be at least 1")
    if k >= m:
        if k > m:
            warnings.warn(f"k={k} exceeds {m} columns; keeping all")
        return matrix.copy()
    # entries above the row's k-th largest value stay; ties with it fill the rest in column order
    kth = -np.partition(-matrix, k - 1, axis=1)[:, k - 1:k]
    above, tied = matrix > kth, matrix == kth
    slots = k - above.sum(axis=1, keepdims=True)
    return np.where(above | (tied & (np.cumsum(tied, axis=1) <= slots)), matrix, 0.0)


def positional_features(n: int, store: ParamStore, prefix: str = "pos") -> Tensor:
    """Learned positional embeddings: the affine map applied to one-hot ids.

    Feeding the identity matrix through an affine layer just selects its
    weight rows, so the embedding table is read off directly.
    """
    w = store[f"{prefix}.W"]
    if w.value.shape[0] != n:
        raise ShapeError(f"embedding table has {w.value.shape[0]} rows for n={n}")
    return add_rowvec(w, store[f"{prefix}.b"])


def ppnp_forward(diffusion, features, store: ParamStore, prefix: str = "ppnp",
                 dropout: float = 0.0, rng=None) -> Tensor:
    """Two propagation layers: A · ReLU(A · X · W0) · W1, no biases."""
    x = features if isinstance(features, Tensor) else Tensor(np.asarray(features, dtype=np.float64))
    h = relu(propagate(diffusion, matmul(x, store[f"{prefix}.W0"])))
    if dropout > 0.0:
        if rng is None:
            raise ValueError("dropout requires a generator")
        h = mul(h, Tensor(dropout_mask(h.value.shape, dropout, rng)))
    return propagate(diffusion, matmul(h, store[f"{prefix}.W1"]))


def build_diffusion(edges: np.ndarray, n: int, config: PPRConfig) -> tuple[np.ndarray, np.ndarray]:
    """Normalized adjacency -> diffusion -> top-k; returns (dense, sparsified)."""
    a_norm = normalize_adjacency(edges, n)
    if config.method == "closed_form":
        dense = ppr_closed_form(a_norm, config.alpha)
    else:
        dense = ppr_power_iteration(a_norm, config.alpha, config.tol, config.max_iter).matrix
    k = config.k if config.k >= 1 else n   # k=0 means no sparsification
    return dense, knn_sparsify(dense, k)


def dump_structure(matrix: np.ndarray, path: str, header: str | None = None) -> None:
    """Write the sparsified diffusion as a weighted edge list tsv (u, v, w)."""
    mat = sp.coo_array(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        order = np.lexsort((mat.col, mat.row))
        for u, v, w in zip(mat.row[order], mat.col[order], mat.data[order]):
            fh.write(f"{u}\t{v}\t{format(w, '.12g')}\n")
