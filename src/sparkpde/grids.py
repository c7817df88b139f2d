"""The regular-grid observation graph.

Nodes live on an H x W lattice in row-major order (node i = r*W + c). The
adjacency is the periodic 4-neighbor mean: node i's neighbors are the
distinct nodes at offsets (+-1, 0) and (0, +-1) mod (H, W), each weighted by
one over their count. Every node has the same offsets, so the graph is one
stencil, and it is symmetric because the offsets are closed under negation:
the one matrix serves every forward pass and, as its own transpose, every VJP.

The column order within each CSR row is part of the artifact bytes, since a
sparse product sums each row in stored order: descending.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .errors import ContractViolation


class GridGraph:
    """Periodic H x W lattice: ``stencil`` is the (H, W) weight at each grid
    offset, ``adjacency`` the (N, N) CSR matrix whose row i is the stencil
    shifted to node i, with its columns in descending order (part of the
    artifact bytes, see the module docstring). It equals its transpose."""

    def __init__(self, height: int, width: int):
        if height < 1 or width < 1:
            raise ContractViolation("grid dimensions must be positive")
        self.height = height
        self.width = width
        self.n_nodes = height * width

        neighbors = ((-1, 0), (1, 0), (0, -1), (0, 1))
        offsets = {(dr % height, dc % width) for dr, dc in neighbors} - {(0, 0)}
        if not offsets:
            raise ContractViolation("grid graph has an isolated node")
        weight = 1.0 / len(offsets)
        dr, dc = np.array(sorted(offsets)).T
        self.stencil = np.zeros((height, width))
        self.stencil[dr, dc] = weight

        r, c = np.divmod(np.arange(self.n_nodes), width)
        columns = np.sort((r[:, None] + dr) % height * width + (c[:, None] + dc) % width, axis=1)
        self.adjacency = sparse.csr_matrix(
            (np.full(columns.size, weight), columns[:, ::-1].reshape(-1),
             np.arange(0, columns.size + 1, len(offsets))),
            shape=(self.n_nodes, self.n_nodes),
        )
