"""Regular-grid observation graphs.

Nodes live on an H x W lattice in row-major order (node i = r*W + c). The
adjacency is the periodic sparse 4-neighbor stencil, normalized
row-stochastically (the neighbor mean).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ContractViolation


class GridGraph:
    """Periodic H x W lattice with a sparse row-normalized adjacency."""

    def __init__(self, height: int, width: int):
        if height < 1 or width < 1:
            raise ContractViolation("grid dimensions must be positive")
        self.height = height
        self.width = width
        self.n_nodes = height * width

        binary = self._build_binary()
        degrees = np.asarray(binary.sum(axis=1)).reshape(-1)
        if np.any(degrees < 1):
            raise ContractViolation("grid graph has an isolated node")
        self.adjacency = (sparse.diags(1.0 / degrees) @ binary).tocsr()
        self.adjacency_t = self.adjacency.T.tocsr()
        self._row_slice_cache: dict = {}

    def _build_binary(self) -> sparse.csr_matrix:
        h, w = self.height, self.width
        rows, cols = [], []
        for r in range(h):
            for c in range(w):
                i = r * w + c
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    j = (r + dr) % h * w + (c + dc) % w
                    if j == i:
                        continue
                    rows.append(i)
                    cols.append(j)
        data = np.ones(len(rows), dtype=np.float64)
        mat = sparse.coo_matrix((data, (rows, cols)), shape=(self.n_nodes, self.n_nodes))
        # Duplicate entries collapse (e.g. 1x2 periodic grids); keep binary weights.
        mat.sum_duplicates()
        mat.data[:] = 1.0
        out = mat.tocsr()
        if (out != out.T).nnz != 0:
            raise ContractViolation("adjacency construction produced an asymmetric matrix")
        return out

    def adjacency_row_slice(self, rows: np.ndarray) -> sparse.csr_matrix:
        """A[rows, :] as CSR, cached per row set.

        Row-slicing before a sparse product keeps the per-row dot products
        (and so the results) bit-identical to slicing afterwards.
        """
        key = rows.tobytes()
        cached = self._row_slice_cache.get(key)
        if cached is None:
            cached = self._row_slice_cache[key] = self.adjacency[rows, :].tocsr()
        return cached


def retained_mode_indices(height: int, width: int, k_max: int) -> np.ndarray:
    """Flat spatial indices of Fourier modes with |k| <= k_max per axis.

    Wavenumbers follow the standard DFT layout (non-negative then negative),
    so the retained set is the four corner blocks of the spectrum.
    """
    if k_max > min(height, width) // 2:
        raise ContractViolation(
            f"k_max={k_max} exceeds floor(min(H,W)/2)={min(height, width) // 2}"
        )
    ky = np.minimum(np.arange(height), height - np.arange(height))
    kx = np.minimum(np.arange(width), width - np.arange(width))
    keep = (ky[:, None] <= k_max) & (kx[None, :] <= k_max)
    return np.flatnonzero(keep.reshape(-1)).astype(np.int64)
