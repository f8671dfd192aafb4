"""Coordinates for finite-dimensional matrix models.

Fixes an orthonormal basis of ``A = (+)_i M_{k_i}`` under ``<u, v> =
tau(v* u)``: the scaled matrix units ``c_i e_pq``, ``c_i = sqrt(k_i /
lambda_i)``, of each block, ordered by block, row and column.  Elements,
tensors and the sharp action then become plain numpy arrays:

* an algebra element is a vector in C^D, ``D = sum k_i^2``.  The basis
  matrices are real, so the coordinates of a real element are real, and
  :meth:`MatrixCoordinates.coords` returns them in the dtype of its input;
* a tensor ``u (x) v`` is the outer product of the two coordinate vectors,
  and the tensor-trace inner product is the Frobenius pairing;
* left sharp multiplication ``(f (x) g) # (u (x) v) = f u (x) v g`` moves
  the block-(i, j) part of a tensor (left leg in block i, right leg in block
  j) only through the row of its left leg and the column of its right leg.
  The translates of a set of tensors therefore span ``C^{k_i k_j} (x)
  span(M_ij)`` on each block pair, with ``M_ij`` the multiplicity matrix of
  :meth:`MatrixCoordinates.sharp_translates`.  Block pairs of one shape
  ``(k_i, k_j)`` have multiplicity matrices of one shape, so one call
  gathers all of them, stacked pair by pair, for one batched SVD.
"""

from __future__ import annotations

import numpy as np

from .trace import MatrixModel


class MatrixCoordinates:
    def __init__(self, model: MatrixModel):
        basis = []
        self.blocks = []   # (coordinate slice, size, scale) per block
        off = coord = 0
        for k, lam in model.blocks:
            scale = np.sqrt(k / lam)
            for p in range(k):
                for q in range(k):
                    E = np.zeros((model.dim, model.dim))
                    E[off + p, off + q] = scale
                    basis.append(E)
            self.blocks.append((slice(coord, coord + k * k), k, scale))
            off += k
            coord += k * k
        self.D = len(basis)
        self._start = np.array([s.start for s, _, _ in self.blocks])
        self._scale = np.array([c for _, _, c in self.blocks])
        self.basis = np.stack(basis)
        # coords(u)_a = tau(f_a^* u) = sum_{ij} f_a[i,j] w_j u[i,j], f_a real
        self._coord = np.einsum("aij,j->aij", self.basis, model.weights)
        self._coord = self._coord.reshape(self.D, -1)

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of a matrix, or of a stack of matrices (..., D), real
        for real matrices and complex for complex ones."""
        mat = np.asarray(mat)
        return mat.reshape(*mat.shape[:-2], -1) @ self._coord.T

    def mat(self, coords: np.ndarray) -> np.ndarray:
        return np.tensordot(coords, self.basis, axes=1)

    def sharp_translates(self, rows: np.ndarray, i, j) -> np.ndarray:
        """Multiplicity matrices ``M_ij`` of the left sharp translates of a
        stack of coordinate rows on one block pair (i, j), or on several block
        pairs of one shape, stacked pair by pair.

        ``rows`` has shape (r, n, D, D).  Translation by the basis tensor of
        ``e_ab`` in block i and ``e_ce`` in block j moves the block-(i, j)
        entries with left-leg row b and right-leg column c to left-leg row a
        and right-leg column e, scaled by ``c_i c_j = sqrt(k_i k_j /
        (lambda_i lambda_j))``; the left-leg column and the right-leg row
        stay.  So the translates are ``I_{k_i k_j} (x) M_ij``, with ``M_ij`` of
        shape (r*k_i*k_j, n*k_i*k_j): rows indexed by (row, left-leg row,
        right-leg column) and columns by (slot, left-leg column, right-leg
        row).

        ``i`` and ``j`` are block indices, or equal-length index arrays of P
        block pairs that all have the shape (k_i, k_j).  Their blocks are
        gathered in one fancy index and the result is the pair-major stack of
        the P matrices ``M_ij``, of shape (P*r*k_i*k_j, n*k_i*k_j).
        """
        ii, jj = np.atleast_1d(i), np.atleast_1d(j)
        ki, kj = self.blocks[ii[0]][1], self.blocks[jj[0]][1]
        r, n = rows.shape[:2]
        left = self._start[ii, None] + np.arange(ki * ki)
        right = self._start[jj, None] + np.arange(kj * kj)
        t = rows[:, :, left[:, :, None], right[:, None, :]]
        t = t.reshape(r, n, len(ii), ki, ki, kj, kj)
        t = t.transpose(2, 0, 3, 6, 1, 4, 5).reshape(len(ii), -1, n * ki * kj)
        t *= (self._scale[ii] * self._scale[jj])[:, None, None]
        return t.reshape(-1, n * ki * kj)
