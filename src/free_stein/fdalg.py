"""Coordinates for finite-dimensional matrix models.

Fixes an orthonormal basis of the algebra under ``<u, v> = tau(v* u)``
(scaled matrix units), so that elements, tensors over the algebra and the
sharp action all become plain numpy arrays:

* an algebra element is a vector in C^D;
* a tensor ``u (x) v`` is the outer product of the two coordinate vectors,
  and the tensor-trace inner product is the Frobenius pairing;
* left sharp multiplication by a basis tensor ``f_a (x) f_b`` acts on a
  coordinate matrix C as ``L_a C R_b^T`` with the left/right multiplication
  matrices of the algebra.
"""

from __future__ import annotations

import numpy as np

from .trace import MatrixModel


class MatrixCoordinates:
    def __init__(self, model: MatrixModel):
        self.model = model
        basis = []
        off = 0
        for k, lam in model.blocks:
            scale = np.sqrt(k / lam)
            for p in range(k):
                for q in range(k):
                    E = np.zeros((model.dim, model.dim), dtype=complex)
                    E[off + p, off + q] = scale
                    basis.append(E)
            off += k
        self.basis = basis
        self.D = len(basis)
        B = np.stack(basis)
        # coords(u)_a = tau(f_a^* u) = sum_{ij} conj(f_a[i,j]) w_j u[i,j]
        self._coord = np.einsum("aij,j->aij", B.conj(), model.weights)
        self._coord = self._coord.reshape(self.D, -1)
        self.left = np.zeros((self.D, self.D, self.D), dtype=complex)
        self.right = np.zeros((self.D, self.D, self.D), dtype=complex)
        for a in range(self.D):
            for b in range(self.D):
                self.left[a, :, b] = self.coords(basis[a] @ basis[b])
                self.right[a, :, b] = self.coords(basis[b] @ basis[a])
        self.unit = self.coords(np.eye(model.dim, dtype=complex))

    def coords(self, mat: np.ndarray) -> np.ndarray:
        return self._coord @ np.asarray(mat, dtype=complex).reshape(-1)

    def mat(self, coords: np.ndarray) -> np.ndarray:
        acc = np.zeros((self.model.dim, self.model.dim), dtype=complex)
        for c, f in zip(coords, self.basis):
            acc += c * f
        return acc

    def sharp_translates(self, rows: np.ndarray) -> np.ndarray:
        """All left sharp translates ``(f_a (x) f_b) # row`` of a stack of
        coordinate rows.

        ``rows`` has shape (r, n, D, D); the result has shape (r*D*D, n*D*D),
        with the flattened translate of row k by basis tensor (a, b) at
        ``k*D*D + a*D + b``.  The translate acts on each slot j as
        ``L_a row[j] R_b^T``: two tensor contractions over the whole stack.
        """
        r, n = rows.shape[:2]
        t = np.tensordot(self.left, rows, axes=([2], [2]))   # a x k j z
        t = np.tensordot(t, self.right, axes=([4], [2]))     # a x k j b w
        t = t.transpose(2, 0, 4, 3, 1, 5)                    # k a b j x w
        return t.reshape(r * self.D * self.D, n * self.D * self.D)
