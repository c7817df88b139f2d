"""The regular-grid observation graph.

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
