"""Coordinates for finite-dimensional matrix models.

Works in the orthonormal basis of ``A = (+)_i M_{k_i}`` under ``<u, v> =
tau(v* u)`` that :meth:`MatrixModel.coords` reads: the scaled matrix units
``f_a = c_i e_pq``, ``c_i = sqrt(k_i / lambda_i)``, of each block, ordered
by block, row and column.  No basis matrix is formed: elements, tensors and
the sharp action are plain numpy arrays, read off matrices by index:

* an algebra element is a vector in C^D, ``D = sum k_i^2``, of its
  diagonal-block entries ``(p_a, q_a)`` over ``c_i``, real for a real matrix;
* right multiplication by ``m`` is the D x D matrix
  :meth:`MatrixCoordinates.right`: ``f_a m`` has the coordinates ``m[q_a,
  q_a']`` where ``p_a' = p_a`` (the scales cancel within a block);
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
        ends = np.cumsum([0] + [k * k for k, _ in model.blocks])
        # (coordinate slice, size, scale) per block
        self.blocks = [(slice(a, b), k, np.sqrt(k / lam)) for a, b, (k, lam)
                       in zip(ends, ends[1:], model.blocks)]
        self.D = int(ends[-1])
        self._start = ends[:-1]
        self._scale = np.array([c for _, _, c in self.blocks])
        self.coords = model.coords
        self._p, self._q = model._entries

    def right(self, mats: np.ndarray) -> np.ndarray:
        """Matrices ``(..., D, D)`` of right multiplication by a matrix, or
        by each of a stack of matrices: row ``a`` is ``coords(f_a m)``, read
        by index, ``m[q_a, q_a']`` where ``p_a = p_a'`` and 0 elsewhere."""
        p, q = self._p, self._q
        return np.where(p[:, None] == p[None, :],
                        np.asarray(mats)[..., q[:, None], q[None, :]], 0)

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
