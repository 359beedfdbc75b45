"""Cross-subsystem property-based tests (hypothesis).

These pin the global equivalences the reproduction rests on:
tree == direct at theta = 0 for arbitrary particle configurations,
integrator agreement on random linear systems, and simulated-MPI
collectives matching serial reductions on random communication patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.parallel import Scheduler
from repro.sdc import SDCStepper
from repro.tree import TreeEvaluator
from repro.vortex import DirectEvaluator, get_kernel
from repro.vortex.problem import ODEProblem


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(5, 120),
    leaf_size=st.integers(2, 64),
)
def test_tree_theta_zero_equals_direct_property(seed, n, leaf_size):
    """For any cloud and any leaf size, theta = 0 is exact."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    ch = rng.normal(size=(n, 3))
    kernel = get_kernel("algebraic6")
    sigma = 0.5
    ref = DirectEvaluator(kernel, sigma).field(pos, ch)
    tree = TreeEvaluator(kernel, sigma, theta=0.0,
                         leaf_size=leaf_size).field(pos, ch)
    assert np.allclose(tree.velocity, ref.velocity, rtol=1e-10, atol=1e-13)
    assert np.allclose(tree.gradient, ref.gradient, rtol=1e-10, atol=1e-13)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    theta=st.floats(0.1, 1.0),
)
def test_tree_error_bounded_by_theta_property(seed, theta):
    """Tree error stays within a generous theta^2-proportional band."""
    rng = np.random.default_rng(seed)
    n = 150
    pos = rng.normal(size=(n, 3))
    ch = rng.normal(size=(n, 3)) * 0.2
    kernel = get_kernel("algebraic6")
    sigma = 0.5
    ref = DirectEvaluator(kernel, sigma).field(pos, ch, gradient=False)
    out = TreeEvaluator(kernel, sigma, theta=theta,
                        leaf_size=16).field(pos, ch, gradient=False)
    rel = np.max(np.abs(out.velocity - ref.velocity)) / max(
        np.max(np.abs(ref.velocity)), 1e-300
    )
    # quadrupole truncation: error ~ theta^3 region-wise; assert a loose
    # monotone envelope rather than the sharp constant
    assert rel < 0.6 * theta**2 + 1e-10


@settings(max_examples=15, deadline=None)
@given(
    a=arrays(np.float64, (3, 3), elements=st.floats(-1.0, 1.0)),
    u0=arrays(np.float64, (3,), elements=st.floats(-2, 2)),
)
def test_sdc_matches_expm_on_random_linear_systems(a, u0):
    """SDC(6) with small dt reproduces the matrix exponential."""
    from scipy.linalg import expm

    class Linear(ODEProblem):
        def rhs(self, t, u):
            return a @ u

    stepper = SDCStepper(Linear(), num_nodes=3, sweeps=6)
    u = stepper.run(u0, 0.0, 0.5, 0.0625)
    exact = expm(0.5 * a) @ u0
    scale = max(np.abs(exact).max(), np.abs(u0).max(), 1.0)
    assert np.allclose(u, exact, atol=1e-5 * scale)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    n_ranks=st.integers(2, 10),
    n_msgs=st.integers(1, 10),
)
def test_random_message_patterns_deliver_exactly_once(seed, n_ranks, n_msgs):
    """Random point-to-point patterns: every payload arrives intact,
    exactly once, in FIFO order per channel."""
    rng = np.random.default_rng(seed)
    # pre-generate a random schedule: (src, dst, value)
    msgs = [
        (int(rng.integers(0, n_ranks)),
         int(rng.integers(0, n_ranks - 1)),
         int(rng.integers(0, 1000)))
        for _ in range(n_msgs)
    ]
    # fix self-sends by shifting dst
    msgs = [(s, d if d < s else d + 1, v) for s, d, v in msgs]

    def program2(comm):
        received = []
        for s, d, v in msgs:
            if comm.rank == s:
                yield comm.send(d, ("m", s), v)
        for s, d, v in msgs:
            if comm.rank == d:
                received.append((yield comm.recv(s, ("m", s))))
        return received

    res = Scheduler(n_ranks, measure_compute=False).run(program2)
    for rank in range(n_ranks):
        expected = [v for s, d, v in msgs if d == rank]
        assert res[rank] == expected


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_pfasst_sdc_consistency_property(seed):
    """On random nonstiff linear 2x2 systems, converged PFASST and serial
    SDC agree."""
    from repro.pfasst import LevelSpec, PfasstConfig, run_pfasst

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 2)) * 0.5

    class Linear(ODEProblem):
        def rhs(self, t, u):
            return a @ u

    prob = Linear()
    u0 = rng.normal(size=2)
    t_end, n = 1.0, 4
    sdc_ref = SDCStepper(prob, num_nodes=3, sweeps=12).run(
        u0, 0.0, t_end, t_end / n
    )
    cfg = PfasstConfig(t0=0.0, t_end=t_end, n_steps=n, iterations=10)
    specs = [LevelSpec(prob, 3, 1), LevelSpec(prob, 2, 2)]
    pf = run_pfasst(cfg, specs, u0, p_time=n)
    assert np.allclose(pf.u_end, sdc_ref, atol=1e-9)
