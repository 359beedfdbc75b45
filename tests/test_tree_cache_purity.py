"""``TreeStateCache`` purity: a cached answer is the cold answer.

One shared cache serves evaluators that differ in every parameter a
field depends on, over a small pool of position and charge sets, in
whatever order hypothesis picks; each result must be ``np.array_equal``
to what a fresh evaluator with a private cache computes.  This is the
bug class of PR 10 (far weights of one charge set served to another):
any stage — build, moments, traversal, finished field — keyed by less
than its result depends on shows up as a mismatch here.

Every variant differs from the base evaluator in exactly one parameter
and the rules evaluate contrasting requests on the same arrays in one
step, so a key that forgets a parameter (sigma, order, the segment, ...)
fails whenever that step is drawn rather than by luck of two draws
meeting.
"""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.tree import TreeStateCache
from repro.tree.parallel import SpaceParallelTreeEvaluator

_SIGMA = 0.35

#: (kernel, sigma, theta, order, leaf_size, backend): a base evaluator
#: and one variant per parameter
_VARIANTS = (
    ("algebraic6", _SIGMA, 0.3, 2, 24, "numpy"),
    ("algebraic6", _SIGMA, 0.6, 2, 24, "numpy"),
    ("algebraic6", _SIGMA, 0.3, 1, 24, "numpy"),
    ("algebraic6", 1.5 * _SIGMA, 0.3, 2, 24, "numpy"),
    ("algebraic2", _SIGMA, 0.3, 2, 24, "numpy"),
    ("algebraic6", _SIGMA, 0.3, 2, 12, "numpy"),
    ("algebraic6", _SIGMA, 0.3, 2, 24, "threaded"),
)


_RNG = np.random.default_rng(20)
#: 3 position sets x 3 charge sets, every charge set used over every
#: position set
_POSITIONS = [_RNG.normal(size=(180, 3)) for _ in range(3)]
_CHARGES = [0.1 * _RNG.normal(size=(180, 3)) for _ in range(3)]


def _evaluator(variant, cache=None):
    kernel, sigma, theta, order, leaf_size, backend = variant
    return SpaceParallelTreeEvaluator(
        kernel, sigma, theta=theta, order=order, leaf_size=leaf_size,
        backend=backend, cache=cache,
    )


def _call(evaluator, positions, charges, gradient, segment):
    """One evaluation as a tuple of arrays (``None`` without gradient)."""
    if segment is not None:
        p_space, rank = segment
        return evaluator.segment_field(
            positions, charges, rank, p_space, gradient=gradient
        )
    out = evaluator.field(positions, charges, gradient=gradient)
    return out.velocity, out.gradient


#: cold answers, computed once per distinct request by a fresh evaluator
_COLD = {}


def _cold(v, p, c, gradient, segment=None):
    request = (v, p, c, gradient, segment)
    if request not in _COLD:
        _COLD[request] = _call(
            _evaluator(_VARIANTS[v]), _POSITIONS[p], _CHARGES[c],
            gradient, segment,
        )
    return _COLD[request]


def _same(got, want):
    return all(
        (g is None and w is None) or np.array_equal(g, w)
        for g, w in zip(got, want)
    )


_variants = st.integers(0, len(_VARIANTS) - 1)
_sets = st.integers(0, 2)
_flags = st.booleans()


class CachePurity(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = TreeStateCache()
        self.evaluators = [_evaluator(v, self.cache) for v in _VARIANTS]
        self.requests = 0
        self.flooded = False

    def check(self, v, p, c, gradient, segment=None):
        got = _call(
            self.evaluators[v], _POSITIONS[p], _CHARGES[c], gradient, segment
        )
        self.requests += 1
        assert _same(got, _cold(v, p, c, gradient, segment)), (
            v, p, c, gradient, segment
        )
        return got

    @rule(p=_sets, c=_sets, v=_variants, gradient=_flags, base_first=_flags)
    def base_and_variant(self, p, c, v, gradient, base_first):
        for which in ((0, v) if base_first else (v, 0)):
            self.check(which, p, c, gradient)

    @rule(p=_sets, p2=_sets, c=_sets, c2=_sets, v=_variants)
    def same_evaluator_other_arrays(self, p, p2, c, c2, v):
        self.check(v, p, c, True)
        self.check(v, p, c2, True)
        self.check(v, p2, c2, True)

    @rule(p=_sets, c=_sets, v=_variants, p_space=st.sampled_from([2, 3]),
          gradient=_flags)
    def segments_then_full(self, p, c, v, p_space, gradient):
        for rank in range(p_space):
            self.check(v, p, c, gradient, segment=(p_space, rank))
        self.check(v, p, c, gradient)

    @rule(p=_sets, c=_sets, v=_variants, segment=st.sampled_from(
        [None, (2, 1)]))
    def scribble_on_a_result(self, p, c, v, segment):
        for array in self.check(v, p, c, True, segment=segment):
            array[...] = np.nan
        self.check(v, p, c, True, segment=segment)

    @precondition(lambda self: not self.flooded)
    @rule()
    def flood(self):
        """More distinct results than the memo keeps: the oldest go."""
        self.flooded = True
        ev, positions = self.evaluators[0], _POSITIONS[2]
        n = TreeStateCache._FIELD_SLOTS + 1
        for k in range(n):
            ev.field(positions, (1.0 + k) * _CHARGES[0], gradient=False)
        self.requests += n
        misses = self.cache.stats.field_misses
        ev.field(positions, _CHARGES[0], gradient=False)
        self.requests += 1
        assert self.cache.stats.field_misses == misses + 1
        assert ev.last_stats.build_cached and not ev.last_stats.field_cached

    @invariant()
    def every_request_is_counted_once(self):
        stats = self.cache.stats
        assert stats.field_hits + stats.field_misses == self.requests


TestCachePurity = CachePurity.TestCase
TestCachePurity.settings = settings(
    max_examples=10, stateful_step_count=12, derandomize=True, deadline=None,
)
