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

import numbers
import warnings

import numpy as np
from scipy import sparse as sp

from . import objective
from .autodiff import Operator, ShapeError, Tensor, add_rowvec, as_tensor, layer
from .nn import ParamStore, apply_dropout, glorot
from .pool import one_blas_thread

BLOCK_ROWS = 256   # rows per block of the diffusion's mirror and top-k passes
F32_MIN_ALPHA = 0.01   # from objective.F32_ROWS nodes on, alpha from here solves in float32


def symmetric_normalize(m) -> sp.csr_array:
    """The one symmetric normalization, D^{-1/2} M D^{-1/2} with D M's row sums floored at 1e-12."""
    inv_sqrt = 1.0 / np.sqrt(np.maximum(np.asarray(m.sum(axis=1)).ravel(), 1e-12))
    return sp.csr_array(sp.diags_array(inv_sqrt) @ m @ sp.diags_array(inv_sqrt))


def normalize_adjacency(edges: np.ndarray, n: int) -> sp.csr_array:
    """symmetric_normalize of the self-looped adjacency A + I, as sparse.

    Spectral radius is at most 1, which makes the diffusion below converge.
    Isolated nodes keep degree 1 from the self-loop, so the floor never acts.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    return symmetric_normalize(sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n)))


@one_blas_thread()
def ppr_closed_form(a_norm, alpha: float) -> np.ndarray:
    """Exact diffusion: alpha * (I - (1-alpha) * a_norm)^{-1}; a_norm dense or sparse.

    With a_norm symmetric of spectrum in [-1, 1] (normalize_adjacency) the system
    is positive definite, eigenvalues in [alpha, 2 - alpha], so it is inverted
    through a Cholesky factor of its upper triangle, in place in one Fortran-ordered
    n x n array, and its transpose mirrored exactly symmetric BLOCK_ROWS rows at a time.

    From objective.F32_ROWS nodes on and for alpha >= F32_MIN_ALPHA the system
    is built, factored (spotrf/spotri), mirrored, clipped and returned in float32: its
    condition number is at most (2 - alpha) / alpha, 199 at alpha = 0.01, and
    a Cholesky inverse errs about that many float32 roundoffs, so entries stay
    within about 1e-6 of max |entry| of the float64 solve at half its time and
    memory.  Below either bound the solve is float64.  alpha outside (0, 1)
    raises ValueError.
    """
    from scipy.linalg import lapack  # imported on first use: it adds ~0.1 s to package import
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1)")
    alpha = float(alpha)   # a numpy scalar would scale float32 rows in float64
    a = sp.coo_array(a_norm, dtype=np.float64)
    n = a.shape[0]
    dtype = np.float32 if n >= objective.F32_ROWS and alpha >= F32_MIN_ALPHA else np.float64
    potrf, potri = lapack.get_lapack_funcs(("potrf", "potri"), dtype=dtype)
    system = np.zeros((n, n), dtype=dtype, order="F")
    system[a.row, a.col] = 0.0 - (1.0 - alpha) * a.data   # 0.0 - x: zeros stay +0.0, as in eye - x
    system.flat[::n + 1] += 1.0
    # clean zeroes the strict lower triangle, which potri then leaves alone
    factor, info = potrf(system, overwrite_a=True, clean=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"PPR system is not positive definite (potrf info={info}); "
                                    "a_norm must be a symmetric normalized adjacency")
    out = potri(factor, overwrite_c=True)[0].T   # lower triangle set, upper still 0
    for r0 in range(0, n, BLOCK_ROWS):
        rows = out[r0:r0 + BLOCK_ROWS]
        e = r0 + len(rows)
        # mirror from the rows below, not yet scaled: the diagonal tile's strict upper
        # triangle, then the whole slab to its right; clip roundoff dust (the series is >= 0)
        rows[:, r0:e] += np.triu(out[r0:e, r0:e].T, 1)
        rows[:, e:] += out[e:, r0:e].T
        np.maximum(np.multiply(rows, alpha, out=rows), 0.0, out=rows)
    return out


def knn_sparsify(matrix: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest entries of each row, zeroing the rest.

    No renormalization.  Ties break toward the smaller column index; the
    self column competes like any other.  k of at least the column count
    keeps everything.  Whatever k, a NaN entry raises ValueError naming its row.
    A float32 matrix is selected and returned in float32, anything else in
    float64; since float32 -> float64 is exact and monotone, float32 selects
    what its float64 upcast would.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype != np.float32:
        matrix = matrix.astype(np.float64, copy=False)
    m = matrix.shape[1]
    if k < 1:
        raise ValueError(f"k {k} must be at least 1")
    if k > m:
        warnings.warn(f"k={k} exceeds {m} columns; keeping all")
    # a row's k largest sit in its last k partitioned slots, NaNs (sorted last) among them
    top = matrix if k >= m else np.partition(matrix, m - k, axis=1)[:, m - k:]
    nan_rows = np.flatnonzero(np.isnan(top).any(axis=1))
    if nan_rows.size:
        raise ValueError(f"knn_sparsify: row {nan_rows[0]} has a NaN entry")
    if k >= m:
        return matrix.copy()
    # entries at or above the row's k-th largest value stay; where ties with it
    # give more than k, they fill the remaining slots in column order
    kth = top[:, :1]
    keep = matrix >= kth
    over = np.flatnonzero(keep.sum(axis=1) > k)
    if over.size:
        rows, kth = matrix[over], kth[over]
        above, tied = rows > kth, rows == kth
        slots = k - above.sum(axis=1, keepdims=True)
        keep[over] = above | (tied & (np.cumsum(tied, axis=1) <= slots))
    return np.where(keep, matrix, 0.0)


def positional_features(n: int, store: ParamStore) -> Tensor:
    """Learned positional embeddings: the affine map applied to one-hot ids.

    Feeding the identity matrix through an affine layer just selects its
    weight rows, so the embedding table is read off directly.
    """
    w = store["pos.W"]
    if w.value.shape[0] != n:
        raise ShapeError(f"embedding table has {w.value.shape[0]} rows for n={n}")
    return add_rowvec(w, store["pos.b"])


def init_ppnp(store: ParamStore, prefix: str, dims: tuple[int, int, int],
              rng: np.random.Generator) -> None:
    """The one initialization of the propagation net's weights, no biases:
    dims = (input, hidden, output), drawn W0 then W1."""
    a, h, b = dims
    store.add(f"{prefix}.W0", glorot(rng, a, h))
    store.add(f"{prefix}.W1", glorot(rng, h, b))


def ppnp_hidden(op: Operator | None, features, store: ParamStore, prefix: str) -> Tensor:
    """The net's lower layer, ReLU(A · X · W0), one node: everything below the dropout.
    With op None the features come propagated (A · X) and the layer is ReLU(X · W0)."""
    return layer(as_tensor(features), store[f"{prefix}.W0"], op=op, relu=True)


def ppnp_output(op: Operator, hidden: Tensor, store: ParamStore, prefix: str,
                dropout: float = 0.0, rng=None) -> Tensor:
    """The net's upper layer, A · drop(H) · W1, over a hidden layer from
    ppnp_hidden: one node above the dropout's own."""
    return layer(apply_dropout(hidden, dropout, rng), store[f"{prefix}.W1"], op=op)


def ppnp_forward(op: Operator, features, store: ParamStore, prefix: str = "ppnp",
                 dropout: float = 0.0, rng=None) -> Tensor:
    """Two propagation layers: A · ReLU(A · X · W0) · W1, no biases, with A
    the matrix of the Operator op (built once per training phase).

    The downstream classifier is this net under prefix "gcn" (gcn.W0, gcn.W1)."""
    return ppnp_output(op, ppnp_hidden(op, features, store, prefix), store, prefix, dropout, rng)


@one_blas_thread()
def build_diffusion(edges: np.ndarray, n: int, alpha: float, k: int) -> sp.csr_array:
    """Normalized adjacency -> closed-form diffusion -> top-k rows, as sparse.

    k=0 or k > n (warned once) keeps every entry; k must be an integer.  One
    dense n x n array is live, in ppr_closed_form's precision (float32 from
    objective.F32_ROWS nodes on, for alpha >= F32_MIN_ALPHA); the top k are
    selected in that precision, block by block, and stored in float64."""
    if not k >= 0:
        raise ValueError(f"k {k} must be nonnegative")
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"k {k} must be an integer")
    dense = ppr_closed_form(normalize_adjacency(edges, n), alpha)
    if k > n:
        warnings.warn(f"k={k} exceeds {n} columns; keeping all")
    k = k if 1 <= k <= n else n
    blocks = [sp.csr_array(knn_sparsify(dense[r0:r0 + BLOCK_ROWS], k)) for r0 in range(0, n, BLOCK_ROWS)]
    return sp.vstack(blocks or [sp.csr_array((0, 0))], format="csr", dtype=np.float64)
