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

from functools import lru_cache
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
    "ycat_program",
    "node_far_weights",
    "far_weight_map",
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


@lru_cache(maxsize=None)
def ycat_program(
    need: int,
) -> Tuple[Tuple[int, ...], int, Tuple[Tuple[int, int, int, int], ...], int]:
    """Row program that builds ``Ycat`` straight from the radial chain.

    Returns ``(seeds, coords, steps, rows)`` for a table of ``rows``
    rows: rows below ``BLOCK_END[need - 1]`` are the ``Ycat`` columns,
    the coordinates of ``r`` go into rows ``coords .. coords + 2`` and
    ``D_{b+1}`` into row ``seeds[b]``; the other rows are scratch.  Each
    step ``(a, b0, b1, d0)`` is one broadcast multiply
    ``row[d0:d0 + b1 - b0] = row[a] * row[b0:b1]``, in order.

    No monomial table is built: blocks 0 and 1 grow their monomials from
    their seeds (:func:`monomial_basis`'s recurrence with ``D_{b+1}`` for
    1), block 2 starts from ``D3`` times six plain quadratics, and block
    3's quartics are ``D4`` times a quadratic times a quadratic.  That
    is 55 row products for chain depth 4, in 22 steps.
    """
    ncols = BLOCK_END[need - 1]
    coords, rows = ncols, ncols + 3

    def col(blk: int, m: int) -> int:
        return BLOCK_COL[blk] + m - BLOCK_LO[blk]

    products = []  # (dst, a, b): row[dst] = row[a] * row[b]

    def grow(blk: int, start: int, stop: int) -> None:
        for m in range(start, stop):
            mono = MONOMIALS[m]
            products.append((col(blk, m), col(blk, _MONO_INDEX[mono[:-1]]),
                             coords + mono[-1]))

    seeds = [0, 4, rows, rows + 1][:need]
    grow(0, 1, DEG_START[2])
    if need >= 2:
        grow(1, 1, DEG_START[3])
    if need >= 3:
        quad = {MONOMIALS[m]: rows + m - 2 for m in range(4, 10)}
        for mono, r in quad.items():
            products.append((r, coords + mono[0], coords + mono[1]))
        for mono, r in quad.items():
            products.append((col(2, _MONO_INDEX[mono]), rows, r))
        grow(2, DEG_START[3], DEG_START[4])
        rows += 8
    if need == 4:
        d4quad = {mono: r + 6 for mono, r in quad.items()}
        for mono, r in quad.items():
            products.append((d4quad[mono], seeds[3], r))
        for m in range(DEG_START[4], DEG_START[5]):
            mono = MONOMIALS[m]
            products.append((col(3, m), d4quad[mono[:2]], quad[mono[2:]]))
        rows += 6
    # merge runs that share the row factor and step both others by one
    steps = []
    for dst, a, b in products:
        if steps:
            pa, pb0, pb1, pd0 = steps[-1]
            if a == pa and b == pb1 and dst == pd0 + pb1 - pb0:
                steps[-1] = (pa, pb0, pb1 + 1, pd0)
                continue
        steps.append((a, b, b + 1, dst))
    return tuple(seeds), coords, tuple(steps), rows


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


@lru_cache(maxsize=None)
def far_weight_map(order: int, gradient: bool) -> np.ndarray:
    """Moments-to-weights matrix ``C`` of the batched far GEMM.

    ``W`` is linear in a cluster's moments, so one run of
    :func:`node_far_weights` on unit moments gives ``C`` with
    ``W = [m0 | m1 | m2] @ C`` (moments flattened, 3 / 12 / 39 of them at
    order 0 / 1 / 2).  Each row of ``C`` is a ``W`` laid out as the GEMM
    operand: (nout, ncols) flattened, nout 12 with gradient and 3
    without, ncols ``BLOCK_END[need - 1]``.  Read-only, built once per
    ``(order, gradient)``.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    ncols = BLOCK_END[order + (1 if gradient else 0)]
    nout = 12 if gradient else 3
    nm = (3, 12, 39)[order]
    unit = np.eye(nm)
    w = node_far_weights(
        unit[:, 0:3],
        unit[:, 3:12].reshape(nm, 3, 3) if order >= 1 else None,
        unit[:, 12:39].reshape(nm, 3, 3, 3) if order >= 2 else None,
        order, gradient,
    )
    c = np.ascontiguousarray(w[:, :ncols, :nout].transpose(0, 2, 1))
    c = c.reshape(nm, nout * ncols)
    c.setflags(write=False)
    return c
