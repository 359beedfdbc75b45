"""Cluster-frame monomial factorization of the vortex far field.

The pairwise expansion (:func:`repro.tree.evaluate.evaluate_vortex_far_pairs`)
is, per (target, cluster) pair with ``r = target - center_k``,

    u_a   = sum_i D_i(r^2) P_i[a](r),
    du_ad = sum_i D_i(r^2) Q_i[ad](r),

where every ``P_i`` / ``Q_i`` is a *polynomial* in ``r`` (degree ``<= i``
for ``P_i``, and ``D_{i+1}`` picks up the extra ``(x) r`` factor of the
gradient) whose coefficients are linear in the cluster moments.  This
module extracts those coefficients once per cluster into a weight matrix
``W[k]`` of shape (45, 12), so the per-pair work collapses to

    out[p, :] = Ycat[p, :] @ W[node(p)]           (one batched GEMM)

with ``Ycat`` the radial-chain values spread over the monomial basis of
``r``.  The basis is degree-major (1; x, y, z; x^2, xy, ...), 35
monomials through degree four, offsets per degree in ``DEG_START``.

Column layout of ``Ycat`` (rows of ``W``), order 2 with gradient:

    [ D1 * psi[0:4] | D2 * psi[0:10] | D3 * psi[4:20] | D4 * psi[20:35] ]

Block ``i`` holds ``D_{i+1}`` times exactly the monomials its
polynomials can produce.  Lower orders / velocity-only evaluations are
column prefixes: chain depth ``need`` uses the first
``BLOCK_END[need - 1]`` columns.

``W`` has 12 output columns: velocity component ``a`` in columns 0..2,
gradient ``du_a/dx_d`` in column ``3 + 3 a + d``.  The factorization is
exact (polynomials terminate, nothing truncated); equivalence tests
assert agreement with the pairwise path to rounding error.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "MONOMIALS",
    "DEG_START",
    "BLOCK_COL",
    "BLOCK_LO",
    "BLOCK_END",
    "monomial_basis",
    "monomial_rows",
    "node_far_weights",
]

#: monomials of degree <= 4, as sorted variable-index tuples, degree-major
MONOMIALS: Tuple[Tuple[int, ...], ...] = tuple(
    c for deg in range(5) for c in combinations_with_replacement(range(3), deg)
)
_MONO_INDEX = {c: i for i, c in enumerate(MONOMIALS)}
#: first column of each degree block (plus the total count)
DEG_START: Tuple[int, ...] = (0, 1, 4, 10, 20, 35)

#: Ycat column offset of block i (the weights multiplying D_{i+1})
BLOCK_COL: Tuple[int, ...] = (0, 4, 14, 30)
#: first monomial index covered by block i
BLOCK_LO: Tuple[int, ...] = (0, 0, 4, 20)
#: one-past-the-end Ycat column of block i
BLOCK_END: Tuple[int, ...] = (4, 14, 30, 45)

#: nonzero Levi-Civita entries as (a, b, c, sign)
_EPS_TERMS = (
    (0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
    (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0),
)


def monomial_basis(delta: np.ndarray, n_mono: int) -> np.ndarray:
    """Values ``phi_m(delta)`` of the first ``n_mono`` monomials, (P, n).

    Built incrementally — each monomial is its sorted prefix times one
    more coordinate — so the whole table costs ``n_mono - 1`` vector
    multiplies.
    """
    out = np.empty((delta.shape[0], n_mono))
    out[:, 0] = 1.0
    for i in range(1, n_mono):
        c = MONOMIALS[i]
        np.multiply(
            out[:, _MONO_INDEX[c[:-1]]], delta[:, c[-1]], out=out[:, i]
        )
    return out


def monomial_rows(rt: np.ndarray, n_mono: int, out: np.ndarray) -> None:
    """Transposed monomial table: fill rows ``out[:n_mono]``, each (P,).

    ``rt`` is (3, P) — coordinate rows.  Same incremental recurrence as
    :func:`monomial_basis`, but row-major so every multiply runs over a
    contiguous lane vector (the layout the batched far driver wants).
    """
    out[0] = 1.0
    for i in range(1, n_mono):
        c = MONOMIALS[i]
        np.multiply(out[_MONO_INDEX[c[:-1]]], rt[c[-1]], out=out[i])


def node_far_weights(
    m0: np.ndarray,
    m1: Optional[np.ndarray],
    m2: Optional[np.ndarray],
    order: int,
    gradient: bool,
) -> np.ndarray:
    """Per-cluster far-field weight matrices ``W``, shape (U, 45, 12).

    Transcribes the combined-term closed form of
    :func:`~repro.tree.evaluate.evaluate_vortex_far_pairs` term by term
    into monomial coefficients (module docstring has the block layout).
    Columns of unused blocks / outputs stay zero and are sliced away by
    the caller, so the same array serves every chain-depth prefix.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    u = m0.shape[0]
    w = np.zeros((u, 45, 12))
    if u == 0:
        return w

    def add(block: int, idx: Tuple[int, ...], out: int, coeff) -> None:
        col = BLOCK_COL[block] + _MONO_INDEX[tuple(sorted(idx))] - BLOCK_LO[block]
        w[:, col, out] += coeff

    vec1 = None
    if order >= 1:
        if m1 is None:
            raise ValueError("order >= 1 requires first moments")
        vec1 = np.stack(
            [m1[:, 2, 1] - m1[:, 1, 2],
             m1[:, 0, 2] - m1[:, 2, 0],
             m1[:, 1, 0] - m1[:, 0, 1]],
            axis=-1,
        )
    tr = None
    if order >= 2:
        if m2 is None:
            raise ValueError("order >= 2 requires second moments")
        tr = np.einsum("ucjj->uc", m2)

    # --- velocity: output column a ------------------------------------
    for a, b, c, s in _EPS_TERMS:
        add(0, (b,), a, s * m0[:, c])                        # D1 r x M0
        if order >= 1:
            for j in range(3):
                add(1, (b, j), a, -s * m1[:, c, j])          # -D2 r x w
        if order >= 2:
            add(1, (b,), a, s * tr[:, c])                    # D2 r x tr
            for k in range(3):
                add(1, (k,), a, 2.0 * s * m2[:, c, b, k])    # 2 D2 vec(m)
                for j in range(3):
                    add(2, (b, j, k), a, s * m2[:, c, j, k])  # D3 r x v
    if order >= 1:
        for a in range(3):
            add(0, (), a, -vec1[:, a])                       # -D1 vec(M1)

    if not gradient:
        return w

    # --- gradient: output column 3 + 3a + d ---------------------------
    for a, d, m, s in _EPS_TERMS:                            # E(.) terms
        add(0, (), 3 + 3 * a + d, s * m0[:, m])              # D1 E(M0)
        if order >= 1:
            for j in range(3):
                add(1, (j,), 3 + 3 * a + d, -s * m1[:, m, j])    # -D2 E(w)
        if order >= 2:
            add(1, (), 3 + 3 * a + d, s * tr[:, m])          # D2 E(tr)
            for j in range(3):
                for k in range(3):
                    add(2, (j, k), 3 + 3 * a + d, s * m2[:, m, j, k])  # D3 E(v)
    for a, b, c, s in _EPS_TERMS:
        for d in range(3):
            o = 3 + 3 * a + d
            add(1, (b, d), o, s * m0[:, c])                  # D2 (r x M0)(x)r
            if order >= 1:
                add(1, (b,), o, -s * m1[:, c, d])            # -D2 r X M1
                for j in range(3):
                    add(2, (b, j, d), o, -s * m1[:, c, j])   # -D3 (r x w)(x)r
            if order >= 2:
                add(2, (b, d), o, s * tr[:, c])              # D3 (r x tr)(x)r
                add(1, (), o, 2.0 * s * m2[:, c, b, d])      # 2 D2 vec2
                for k in range(3):
                    add(2, (k, d), o, 2.0 * s * m2[:, c, b, k])  # 2 D3 vec(m)(x)r
                    add(2, (b, k), o, 2.0 * s * m2[:, c, d, k])  # 2 D3 r X m
                    for j in range(3):
                        add(3, (b, j, k, d), o, s * m2[:, c, j, k])  # D4 (r x v)(x)r
    if order >= 1:
        for a in range(3):
            for d in range(3):
                add(1, (d,), 3 + 3 * a + d, -vec1[:, a])     # -D2 vec(M1)(x)r
    return w
