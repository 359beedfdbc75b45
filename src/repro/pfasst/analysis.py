"""Linear stability of explicit SDC sweeps on ``u' = z u``.

The stability function ``R(z)`` of ``K`` explicit sweeps, from the exact
matrix form of the node-to-node sweep: the oracle the running sweeper is
tested against, and the paper's framing that SDC(K) reproduces
``exp(z)`` to order K.
"""

from __future__ import annotations

import numpy as np

from repro.sdc.quadrature import make_rule

__all__ = ["sdc_stability", "sdc_sweep_matrices"]


def sdc_sweep_matrices(
    num_nodes: int, z: complex, node_type: str = "lobatto"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices ``(M_new, M_old, e0)`` of one explicit SDC sweep.

    For ``u' = z u`` the node-to-node sweep (Eq. 13 with dt = 1) is
    linear: ``M_new U^{k+1} = M_old U^k + e0 u_0``; this returns the
    exact matrices so stability functions can be assembled.
    """
    rule = make_rule(num_nodes, node_type)
    m1 = rule.num_nodes
    delta = rule.delta
    s_mat = rule.S
    m_new = np.eye(m1, dtype=complex)
    m_old = np.zeros((m1, m1), dtype=complex)
    e0 = np.zeros(m1, dtype=complex)
    e0[0] = 1.0  # U^{k+1}_0 = u0
    for m in range(m1 - 1):
        # U_{m+1} = U_m + z d_m (U^{k+1}_m - U^k_m) + z (S U^k)_{m+1}
        m_new[m + 1, m + 1] = 1.0
        m_new[m + 1, m] = -(1.0 + z * delta[m])
        m_old[m + 1, m] = -z * delta[m]
        m_old[m + 1, :] += z * s_mat[m + 1, :]
    return m_new, m_old, e0


def sdc_stability(
    num_nodes: int,
    sweeps: int,
    z: complex | np.ndarray,
    node_type: str = "lobatto",
) -> np.ndarray:
    """Stability function of ``sweeps`` explicit SDC sweeps on a spread
    provisional solution (the ``SDC(K)`` scheme of the paper)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    for idx in np.ndindex(z.shape):
        m_new, m_old, e0 = sdc_sweep_matrices(num_nodes, z[idx], node_type)
        u = np.ones(m_new.shape[0], dtype=complex)  # spread init, u0 = 1
        for _ in range(sweeps):
            u = np.linalg.solve(m_new, m_old @ u + e0)
        out[idx] = u[-1]
    return out if out.shape else out[()]
