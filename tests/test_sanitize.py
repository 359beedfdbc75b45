"""Tests for the opt-in numerical sanitizers (repro.analysis.sanitize)."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import repro.analysis.sanitize as sanitize_mod
import repro.sdc.sweeper as sweeper_mod
from repro.sdc.quadrature import make_rule
from repro.vortex.problem import ODEProblem


class _NaNAfterFirstCall(ODEProblem):
    """RHS that turns sour: finite on the first call, NaN afterwards."""

    def __init__(self) -> None:
        self.calls = 0

    def rhs(self, t: float, u: np.ndarray) -> np.ndarray:
        self.calls += 1
        out = -np.asarray(u, dtype=np.float64)
        if self.calls > 1:
            out = out * np.nan
        return out


@pytest.fixture
def sanitized_modules(monkeypatch):
    """Reload the sanitizer and the sweeper with REPRO_SANITIZE=1.

    The gate is evaluated at decoration (import) time, so enabling it in
    a running process means reloading the decorated modules; restore the
    unsanitized modules afterwards so other tests see the no-op path.
    """
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    importlib.reload(sanitize_mod)
    importlib.reload(sweeper_mod)
    assert sanitize_mod.enabled()
    yield sanitize_mod, sweeper_mod
    monkeypatch.delenv("REPRO_SANITIZE")
    importlib.reload(sanitize_mod)
    importlib.reload(sweeper_mod)


#: the three tests below assert the *unset-flag* contract; under the CI
#: job that exports REPRO_SANITIZE=1 for the whole process they do not
#: apply (TestBoundaryDecorator covers the armed path via reload).
_ambient_sanitize = pytest.mark.skipif(
    sanitize_mod.enabled(),
    reason="REPRO_SANITIZE set in the environment; off-path contract n/a",
)


class TestGate:
    @_ambient_sanitize
    def test_disabled_by_default(self):
        assert not sanitize_mod.enabled()

    @_ambient_sanitize
    def test_disabled_decorator_returns_function_unchanged(self):
        def fn(x):
            return x

        assert sanitize_mod.boundary("b", arrays=["x"])(fn) is fn

    @_ambient_sanitize
    def test_shipped_sweep_is_undecorated(self):
        """Zero-overhead contract: without the flag there is no wrapper."""
        assert not hasattr(sweeper_mod.ExplicitSDCSweeper.sweep, "__wrapped__")

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "no"])
    def test_falsy_spellings(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitize_mod.enabled()

    def test_truthy(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_mod.enabled()


class TestBoundaryDecorator:
    def test_nan_argument_caught(self, sanitized_modules):
        san, _ = sanitized_modules

        @san.boundary("demo", arrays=["x"])
        def fn(x):
            return x

        with pytest.raises(san.SanitizeError, match="demo:x"):
            fn(np.array([1.0, np.nan]))

    def test_shape_contract_enforced(self, sanitized_modules):
        san, _ = sanitized_modules

        @san.boundary("demo", arrays=[("x", (None, 3))])
        def fn(x):
            return x

        with pytest.raises(san.SanitizeError, match="axis 1"):
            fn(np.zeros((4, 2)))

    def test_nan_result_caught(self, sanitized_modules):
        san, _ = sanitized_modules

        @san.boundary("demo")
        def fn():
            return np.array([np.inf]), np.zeros(2)

        with pytest.raises(san.SanitizeError, match="demo:result"):
            fn()

    def test_clean_call_passes_through(self, sanitized_modules):
        san, _ = sanitized_modules

        @san.boundary("demo", arrays=[("x", (None, 3))])
        def fn(x):
            return 2.0 * x

        out = fn(np.ones((5, 3)))
        assert np.array_equal(out, 2.0 * np.ones((5, 3)))

    def test_none_and_scalar_arguments_skipped(self, sanitized_modules):
        san, _ = sanitized_modules

        @san.boundary("demo", arrays=["x", "y"])
        def fn(x, y=None):
            return 0.0

        assert fn(3.5) == 0.0


class TestSweeperBoundary:
    def test_injected_nan_caught_at_sweep(self, sanitized_modules):
        """Acceptance: REPRO_SANITIZE=1 catches an injected NaN at the
        sweeper boundary (the RHS goes NaN mid-sweep)."""
        san, swp = sanitized_modules
        rule = make_rule(3, "lobatto")
        sweeper = swp.ExplicitSDCSweeper(_NaNAfterFirstCall(), rule)
        U, F = sweeper.initialize(0.0, 0.1, np.array([1.0]))
        with pytest.raises(san.SanitizeError, match="sweep:result"):
            sweeper.sweep(0.0, 0.1, U, F)

    def test_nan_in_node_values_caught_on_entry(self, sanitized_modules):
        san, swp = sanitized_modules
        rule = make_rule(3, "lobatto")
        sweeper = swp.ExplicitSDCSweeper(_NaNAfterFirstCall(), rule)
        U, F = sweeper.initialize(0.0, 0.1, np.array([1.0]))
        U = U.copy()
        U[1] = np.nan
        with pytest.raises(san.SanitizeError, match="sweep:U"):
            sweeper.sweep(0.0, 0.1, U, F)

    def test_finite_problem_sweeps_normally(self, sanitized_modules):
        _, swp = sanitized_modules

        class Decay(ODEProblem):
            def rhs(self, t, u):
                return -u

        rule = make_rule(3, "lobatto")
        sweeper = swp.ExplicitSDCSweeper(Decay(), rule)
        U, F = sweeper.initialize(0.0, 0.1, np.array([1.0]))
        U2, F2 = sweeper.sweep(0.0, 0.1, U, F)
        assert np.all(np.isfinite(U2)) and np.all(np.isfinite(F2))


class TestTreeBoundary:
    def test_both_tree_entrances_reject_a_nan_charge(self):
        """``field`` and ``segment_field`` run one pipeline under one
        ``tree_evaluate`` contract.  The tree modules are decorated at
        import, so the armed path runs in a fresh interpreter."""
        script = (
            "import numpy as np\n"
            "from repro.analysis.sanitize import SanitizeError\n"
            "from repro.tree.parallel import SpaceParallelTreeEvaluator\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal(size=(64, 3))\n"
            "q = rng.normal(size=(64, 3))\n"
            "q[5, 1] = np.nan\n"
            "ev = SpaceParallelTreeEvaluator('algebraic6', 0.3, leaf_size=8)\n"
            "for call in (lambda: ev.field(x, q),\n"
            "             lambda: ev.segment_field(x, q, 0, 2)):\n"
            "    try:\n"
            "        call()\n"
            "    except SanitizeError as exc:\n"
            "        print('rejected:', exc)\n"
            "    else:\n"
            "        print('accepted')\n"
        )
        env = dict(os.environ, REPRO_SANITIZE="1")
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, text=True,
            capture_output=True, check=True, timeout=120,
        ).stdout.splitlines()
        assert len(out) == 2
        for line in out:
            assert line.startswith("rejected:") and \
                "tree_evaluate:charges" in line
