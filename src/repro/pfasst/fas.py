"""Full Approximation Scheme correction between SDC levels (paper Eq. 16).

The coarse collocation problem is augmented so that its solution equals the
*restriction of the fine solution* instead of the coarse discretisation's
own (less accurate) solution:

    tau_C = restrict( dt Q_F F_F + Tau_F ) - dt Q_C F_C(restrict U_F)

in cumulative (Q) form, where ``Tau_F`` is the fine level's own cumulative
FAS term (zero on the finest level).  Sweeps consume the correction in
node-to-node (S) form, so this module converts cumulative differences back
to increments.

Fixed-point property (verified in the tests): if ``U_F`` solves the fine
collocation problem then the restricted state solves the tau-corrected
coarse problem exactly, so coarse sweeps leave it invariant and PFASST's
fixed point is the fine collocation solution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.pfasst.transfer import TimeSpaceTransfer

__all__ = ["fas_correction"]


def fas_correction(
    dt: float,
    transfer: TimeSpaceTransfer,
    F_fine: np.ndarray,
    F_coarse: np.ndarray,
    tau_fine: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Node-to-node FAS correction for the coarse level.

    Parameters
    ----------
    dt :
        Time step length (the rules are normalised to [0, 1]).
    transfer :
        The fine/coarse level pair's transfer operators.
    F_fine : (Mf+1, *state)
        RHS evaluations at the fine nodes.
    F_coarse : (Mc+1, *state)
        RHS evaluations of the *restricted* solution at the coarse nodes.
    tau_fine : (Mf+1, *state), optional
        The fine level's own node-to-node FAS term (multi-level runs).

    Returns
    -------
    (Mc+1, *state) array in node-to-node form.  Entry 0 is zero: node 0
    is the step start, so there is no sub-interval before it to correct.
    """
    fine_cum = dt * transfer.fine_rule.integrate_from_start(F_fine)
    if tau_fine is not None:
        fine_cum = fine_cum + np.cumsum(tau_fine, axis=0)
    restricted_cum = transfer.restrict_nodes(fine_cum)
    coarse_cum = dt * transfer.coarse_rule.integrate_from_start(F_coarse)
    tau_cum = restricted_cum - coarse_cum
    tau = np.diff(tau_cum, axis=0, prepend=tau_cum[:1] * 0.0)
    tau[0] = tau_cum[0]
    return tau
