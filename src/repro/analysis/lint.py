"""repro-lint — project-specific AST static analysis.

The generic linters (flake8, ruff) cannot know which invariants this
repository's results hang on; ``repro-lint`` encodes them as six
reproducibility rules and three tag-discipline checks:

RPR001
    Unseeded / legacy RNG: the module-level ``np.random.*`` API draws
    from hidden global state, and ``np.random.default_rng()`` without a
    seed argument gives a fresh OS-entropy stream — both make runs
    irreproducible.  Pass an explicit seed (or a ``Generator``) instead.
RPR002
    Nondeterminism sources: wall-clock reads (``time.time``,
    ``time.perf_counter``, ...) outside the modules whose *job* is
    timing (``parallel/simmpi.py``, ``obs/timing.py``,
    ``obs/tracer.py``); iteration over
    ``set``/``frozenset`` expressions (hash order of floats and arrays is
    run-dependent under PYTHONHASHSEED); order-dependent reductions
    (``sum``, ``functools.reduce``) over set expressions.  Normalise with
    ``sorted(...)`` first.
RPR003
    Python-level loops over per-particle / per-pair axes inside declared
    hot modules.  The batched engine exists so that Python iteration
    scales with *chunks*, never with N; a ``for i in range(n_particles)``
    in a hot module undoes the PR-1 speedup silently.
RPR004
    dtype drift in hot modules: array allocation without an explicit
    ``dtype=`` (NumPy may pick platform-dependent defaults for integer
    arrays, and implicit float64 hides intent next to int workspaces) and
    any float32 usage — the theta_fine/theta_coarse equivalence study is
    a float64 contract.
RPR005
    ``assert``-based checks in library code: ``python -O`` strips
    asserts, so shape/invariant checks vanish exactly in optimised
    production runs.  Use :func:`repro.utils.validation.check_array` or
    an explicit ``raise``.
RPR006
    Unpicklable compute-task descriptors: a
    ``repro.parallel.executor.ComputeTask`` must survive a process
    boundary, so its ``method`` must be a *string literal* naming a
    regular method on the registered payload, and no argument may be a
    ``lambda`` (closures capture frame state that cannot be pickled —
    the failure would only surface at runtime, under the process
    backend, as a :class:`~repro.parallel.executor.PayloadPicklingError`
    or worse).  Pass plain scalars/arrays and name methods statically.
CG001
    Unregistered tag head: a comm call site whose resolved tag head is
    not declared in :mod:`repro.parallel.tags`.  Every channel namespace
    must be owned.
CG002
    Foreign literal: a *raw literal* head that re-spells a family
    registered to a different, non-shared subsystem, from a module of
    another subsystem or of none.  The two channels would silently
    interleave; registry constants cannot collide (registration is
    duplicate-checked), so only literals are flagged.
CG003
    Tag arity mismatch: a directly constructed tag whose component count
    contradicts the registered family arity (``(PRED, block)`` against
    arity 3).

The CG checks look at comm call sites only: ``yield X.send(dest, tag,
...)`` / ``yield X.recv(src, tag, ...)`` with at least two positional
arguments (a generator's ``.send(value)`` is not one), and every
``bcast`` / ``reduce`` / ``allreduce`` / ``allgather`` call inside a
``yield from`` expression, its tag found by position or ``tag=``, or
the collective's default tag.  A tag resolves through the module's
imports of the registry, the enclosing function's parameters and its
single-name assignments in source order, to ``literal`` / ``registry``
/ ``derived`` (a tuple wrapping a resolved tag, e.g. the split
protocol's ``(tag, src)``) / ``param`` (the caller decides).  Protocol
shape (a recv nobody sends, a collective one rank skips, a wait cycle)
is left to the runtime, whose ``DeadlockError`` and
``OrphanMessageWarning`` name the channel.

Any violation can be suppressed for one line with a justified trailing
comment::

    t0 = time.perf_counter()  # repro-lint: disable=RPR002 -- calibration only

Usage::

    python -m repro.analysis.lint src/          # or the console script:
    repro-lint src/ [--list-rules]

Exit status is 0 when clean, 1 when violations were found, 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.parallel import tags as _tags

__all__ = [
    "RULES",
    "HOT_MODULES",
    "WALLCLOCK_ALLOWED",
    "Violation",
    "lint_source",
    "lint_paths",
    "main",
]

#: rule code -> one-line summary (the full rationale lives in the module
#: docstring and docs/static_analysis.md)
RULES: Dict[str, str] = {
    "RPR001": "unseeded or legacy global-state RNG",
    "RPR002": "nondeterminism source (wall clock, set iteration/reduction)",
    "RPR003": "Python-level loop over a per-particle/per-pair axis in a hot module",
    "RPR004": "dtype drift in a hot module (allocation without dtype=, float32)",
    "RPR005": "assert-based check in library code (stripped under -O)",
    "RPR006": "unpicklable ComputeTask (lambda argument or non-literal method)",
    "CG001": "comm tag head not declared in repro.parallel.tags",
    "CG002": "literal tag head re-spelling another subsystem's family",
    "CG003": "tag arity contradicting the registered family",
}

#: modules whose inner loops must stay vectorised (RPR003/RPR004 scope),
#: matched as posix path suffixes
HOT_MODULES: Tuple[str, ...] = (
    "tree/engine.py",
    "tree/evaluate.py",
    "vortex/kernels.py",
    "vortex/rhs.py",
)

#: modules allowed to read the wall clock (RPR002 scope) — the virtual
#: clock bridge, the evaluators' stopwatch and the tracer; everything
#: else must route timing through them
WALLCLOCK_ALLOWED: Tuple[str, ...] = (
    "parallel/simmpi.py",
    "parallel/executor.py",
    "obs/timing.py",
    "obs/tracer.py",
)

_LEGACY_RANDOM = frozenset(
    "seed rand randn randint random random_sample ranf sample bytes uniform "
    "normal standard_normal choice shuffle permutation beta binomial poisson "
    "exponential gamma lognormal vonmises weibull".split()
)

_WALLCLOCK_CALLS = frozenset(
    {"time.time", "time.perf_counter", "time.monotonic", "time.process_time"}
)
_WALLCLOCK_BARE = frozenset({"time", "perf_counter", "monotonic", "process_time"})

_FLOAT32_ATTRS = frozenset({"np.float32", "numpy.float32", "np.single", "numpy.single"})
_FLOAT32_STRS = frozenset({"float32", "single", "f4", "<f4", ">f4"})

_ALLOC_DTYPE_POS = {"zeros": 1, "empty": 1, "ones": 1, "full": 2}

_PER_PARTICLE_NAME = re.compile(
    r"(?i)^n_?(particles?|pairs?|targets?|sources?|points|bodies)$"
)
_PER_PARTICLE_ITER = re.compile(r"(?i)^(particles|pairs|targets|sources)$")

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")

#: collective generator name -> positional index of its ``tag`` argument
_COLLECTIVE_TAG_POS = {"bcast": 3, "reduce": 4, "allreduce": 3, "allgather": 2}
_COLLECTIVE_DEFAULT_TAG = {
    "bcast": _tags.BCAST,
    "reduce": _tags.REDUCE,
    "allreduce": _tags.ALLREDUCE,
    "allgather": _tags.ALLGATHER,
}


class _TagSite(NamedTuple):
    """One comm call site's tag: ``head`` is None unless it resolved."""

    kind: str  # send | recv | collective
    line: int
    head: Optional[str]
    arity: Optional[int]  # components after the head; None if derived
    source: str
    via: str  # literal | registry | derived | param | unknown


@dataclass(frozen=True)
class Violation:
    """One rule violation at ``path:line:col``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute/name chain (``np.random.rand``) or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of rule codes disabled on that line."""
    out: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if m:
            codes = {c.strip() for c in m.group(1).split(",") if c.strip()}
            out[lineno] = codes
    return out


def _module_subsystem(path: str) -> Optional[str]:
    """Owning tag subsystem of a source file, by path convention."""
    norm = path.replace("\\", "/")
    if norm.endswith("parallel/collectives.py"):
        return "collectives"
    if norm.endswith("parallel/simmpi.py"):
        return "simmpi"
    if "/pfasst/" in norm:
        return "pfasst"
    if "/tree/" in norm:
        return "space"
    return None


def _tag_env(tree: ast.Module) -> Dict[str, Any]:
    """Names this module binds to the tag registry (module or constant)."""
    env: Dict[str, Any] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                name = alias.asname or alias.name
                if node.module == "repro.parallel" and alias.name == "tags":
                    env[name] = _tags
                elif node.module == "repro.parallel.tags":
                    value = getattr(_tags, alias.name, None)
                    if isinstance(value, str):
                        env[name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.parallel.tags" and alias.asname:
                    env[alias.asname] = _tags
    return env


def _resolve(node: ast.AST, env: Dict[str, Any], params: Set[str],
             local: Dict[str, tuple]) -> tuple:
    """Symbolic value of a tag expression: ``("str", head, via)``,
    ``("tuple", [values])``, ``("param", name)`` or ``("unknown", src)``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ("str", node.value, "literal")
    if isinstance(node, ast.Name):
        if node.id in local:
            return local[node.id]
        if isinstance(env.get(node.id), str):
            return ("str", env[node.id], "registry")
        return ("param" if node.id in params else "unknown", node.id)
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and env.get(node.value.id) is _tags):
        value = getattr(_tags, node.attr, None)
        if isinstance(value, str):
            return ("str", value, "registry")
    if isinstance(node, ast.Tuple):
        return ("tuple", [_resolve(e, env, params, local) for e in node.elts])
    return ("unknown", ast.unparse(node))


def _shape(value: tuple) -> Tuple[Optional[str], Optional[int], str]:
    """``(head, arity, via)`` of a resolved tag; head None if unresolved."""
    if value[0] == "str":
        return value[1], 0, value[2]
    if value[0] == "tuple":
        if not value[1]:
            return None, None, "unknown"
        head = value[1][0]
        if head[0] == "str":
            return head[1], len(value[1]) - 1, head[2]
        if head[0] == "tuple":
            inner = _shape(head)[0]
            return inner, None, "derived" if inner is not None else "unknown"
        value = head  # a parameter or unknown head decides the tag
    return None, None, "param" if value[0] == "param" else "unknown"


def _path_matches(path: str, suffixes: Iterable[str]) -> bool:
    posix = Path(path).as_posix()
    return any(posix.endswith(sfx) for sfx in suffixes)


class _Linter(ast.NodeVisitor):
    """Single-file rule visitor.

    ``is_hot`` scopes RPR003/RPR004; ``wallclock_ok`` exempts the timing
    modules from the wall-clock half of RPR002.  Every comm call site's
    tag is recorded in ``tag_sites`` and checked against CG001-CG003.
    """

    def __init__(self, path: str, is_hot: bool, wallclock_ok: bool) -> None:
        self.path = path
        self.is_hot = is_hot
        self.wallclock_ok = wallclock_ok
        self.violations: List[Violation] = []
        self.tag_sites: List[_TagSite] = []
        #: bare names imported from the time module (``from time import ...``)
        self._time_names: Set[str] = set()
        self._subsystem = _module_subsystem(path)
        self._tag_env: Dict[str, Any] = {}
        #: (parameters, single-name tag assignments) per enclosing function
        self._scopes: List[Tuple[Set[str], Dict[str, tuple]]] = []

    # -- plumbing ------------------------------------------------------
    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # -- imports (track `from time import perf_counter`) ---------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_BARE:
                    self._time_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- RPR001 / RPR002 / RPR004 call sites ---------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        if name:
            self._check_rng(node, name)
            self._check_wallclock(node, name)
            self._check_set_reduction(node, name)
            self._check_compute_task(node, name)
            if self.is_hot:
                self._check_allocation(node, name)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in _LEGACY_RANDOM
        ):
            self._flag(
                node, "RPR001",
                f"legacy global-state RNG call {name}(); use a seeded "
                "np.random.default_rng(seed) Generator",
            )
            return
        if parts[-1] == "default_rng":
            seeded = bool(node.args) and not (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            )
            seeded = seeded or any(
                kw.arg == "seed"
                and not (isinstance(kw.value, ast.Constant) and kw.value.value is None)
                for kw in node.keywords
            )
            if not seeded:
                self._flag(
                    node, "RPR001",
                    "default_rng() without a seed draws fresh OS entropy; "
                    "pass an explicit seed for reproducible runs",
                )

    def _check_wallclock(self, node: ast.Call, name: str) -> None:
        if self.wallclock_ok:
            return
        if name in _WALLCLOCK_CALLS or name in self._time_names:
            self._flag(
                node, "RPR002",
                f"wall-clock read {name}() outside the timing modules "
                f"({', '.join(WALLCLOCK_ALLOWED)}); route timing through "
                "obs.timing / the virtual-time scheduler",
            )

    def _check_set_reduction(self, node: ast.Call, name: str) -> None:
        # sum()/reduce() over a set: float accumulation order is hash order
        if name in ("sum", "functools.reduce", "reduce") and node.args:
            if self._is_set_expr(node.args[-1] if name != "sum" else node.args[0]):
                self._flag(
                    node, "RPR002",
                    f"order-dependent reduction {name}() over a set; "
                    "normalise with sorted(...) first",
                )

    def _check_compute_task(self, node: ast.Call, name: str) -> None:
        # RPR006: ComputeTask descriptors must cross a process boundary
        if name.split(".")[-1] != "ComputeTask":
            return
        method_expr: Optional[ast.AST] = None
        if len(node.args) >= 2:
            method_expr = node.args[1]
        for kw in node.keywords:
            if kw.arg == "method":
                method_expr = kw.value
        if method_expr is not None and not (
            isinstance(method_expr, ast.Constant)
            and isinstance(method_expr.value, str)
        ):
            self._flag(
                node, "RPR006",
                "ComputeTask method must be a string literal naming a "
                "method on the registered payload; computed or callable "
                "methods cannot cross the process-backend boundary",
            )
        for arg in [*node.args, *(kw.value for kw in node.keywords)]:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    self._flag(
                        sub, "RPR006",
                        "lambda inside a ComputeTask cannot be pickled for "
                        "the process execution backend; pass plain data and "
                        "a string method name instead",
                    )

    def _check_allocation(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if len(parts) == 2 and parts[0] in ("np", "numpy"):
            fn = parts[1]
            pos = _ALLOC_DTYPE_POS.get(fn)
            if pos is not None:
                has_dtype = len(node.args) > pos or any(
                    kw.arg == "dtype" for kw in node.keywords
                )
                if not has_dtype:
                    self._flag(
                        node, "RPR004",
                        f"{name}() without explicit dtype= in a hot module; "
                        "spell out the float64/int64 contract",
                    )
            for kw in node.keywords:
                if (
                    kw.arg == "dtype"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value in _FLOAT32_STRS
                ):
                    self._flag(
                        node, "RPR004",
                        f"float32 dtype string {kw.value.value!r} in a hot "
                        "module; the evaluation pipeline is a float64 contract",
                    )

    # -- RPR004: float32 attribute anywhere in a hot module ------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self.is_hot:
            name = _dotted(node)
            if name in _FLOAT32_ATTRS:
                self._flag(
                    node, "RPR004",
                    f"{name} in a hot module; the evaluation pipeline is a "
                    "float64 contract",
                )
        self.generic_visit(node)

    # -- RPR002 / RPR003 loops -----------------------------------------
    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            fname = _dotted(node.func)
            return fname in ("set", "frozenset")
        return False

    def _check_iteration(self, node: ast.AST, iter_node: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self._flag(
                node, "RPR002",
                "iteration over a set expression; element order follows the "
                "hash seed — iterate over sorted(...) instead",
            )
        if self.is_hot:
            self._check_hot_loop(node, iter_node)

    def _check_hot_loop(self, node: ast.AST, iter_node: ast.AST) -> None:
        target = None
        if isinstance(iter_node, ast.Call):
            fname = _dotted(iter_node.func)
            if fname in ("range", "enumerate") and iter_node.args:
                target = iter_node.args[0]
        elif isinstance(iter_node, ast.Name):
            if _PER_PARTICLE_ITER.match(iter_node.id):
                target = iter_node
        if target is None:
            return
        if self._mentions_per_particle_extent(target):
            self._flag(
                node, "RPR003",
                "Python-level loop over a per-particle/per-pair axis in a "
                "hot module; batch it through the engine (chunk loops are "
                "fine: iterate over chunk_ranges instead)",
            )

    @staticmethod
    def _mentions_per_particle_extent(expr: ast.AST) -> bool:
        """True when ``expr`` reads ``x.shape[0]``, ``len(x)`` or an
        ``n_particles``-style name — the extents hot loops must not span."""
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and _PER_PARTICLE_NAME.match(sub.id):
                return True
            if isinstance(sub, ast.Call) and _dotted(sub.func) == "len":
                return True
            if (
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Attribute)
                and sub.value.attr == "shape"
            ):
                return True
        if isinstance(expr, ast.Name) and _PER_PARTICLE_ITER.match(expr.id):
            return True
        return False

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node, node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter, node.iter)
        self.generic_visit(node)

    # -- RPR005 ---------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._flag(
            node, "RPR005",
            "assert in library code is stripped under python -O; use "
            "utils.validation.check_array or raise an explicit exception",
        )
        self.generic_visit(node)

    # -- CG001-CG003: tag discipline at comm call sites -------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._tag_env = _tag_env(node)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        args = node.args
        params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        self._scopes.append((params, {}))
        self.generic_visit(node)
        self._scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if (self._scopes and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            params, local = self._scopes[-1]
            value = _resolve(node.value, self._tag_env, params, local)
            if value[0] in ("str", "tuple"):
                local[node.targets[0].id] = value

    def visit_Yield(self, node: ast.Yield) -> None:
        call = node.value
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("send", "recv") and len(call.args) >= 2):
            self._tag_site(node, call.func.attr, call.args[1], "")
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        # a collective may sit anywhere in the delegated expression
        # (``protocol(allreduce(...), "...")``)
        calls = [c for c in ast.walk(node.value) if isinstance(c, ast.Call)]
        for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name not in _COLLECTIVE_TAG_POS:
                continue
            tag = next((kw.value for kw in call.keywords if kw.arg == "tag"),
                       None)
            if tag is None and len(call.args) > _COLLECTIVE_TAG_POS[name]:
                tag = call.args[_COLLECTIVE_TAG_POS[name]]
            self._tag_site(node, "collective", tag, name)
        self.generic_visit(node)

    def _tag_site(self, node: ast.expr, kind: str, tag: Optional[ast.expr],
                  collective: str) -> None:
        if tag is None:
            site = _TagSite(kind, node.lineno,
                            _COLLECTIVE_DEFAULT_TAG[collective], 0,
                            f"<default:{collective}>", "registry")
        else:
            params, local = self._scopes[-1] if self._scopes else (set(), {})
            head, arity, via = _shape(
                _resolve(tag, self._tag_env, params, local))
            site = _TagSite(kind, node.lineno, head, arity, ast.unparse(tag),
                            via)
        self.tag_sites.append(site)
        if site.head is None:
            return
        family = _tags.REGISTRY.family_of(site.head)
        if family is None:
            self._flag(
                node, "CG001",
                f"tag head {site.head!r} (from {site.source}) is not "
                "declared in repro.parallel.tags — register the family "
                "or use an existing constant",
            )
            return
        if (site.via == "literal" and not family.shared
                and family.subsystem != self._subsystem):
            where = (f"the {self._subsystem!r} subsystem" if self._subsystem
                     else "a module no subsystem owns")
            self._flag(
                node, "CG002",
                f"literal tag head {site.head!r} re-spells the "
                f"{family.subsystem!r} subsystem's registered family from "
                f"{where} — channels would silently interleave; use the "
                "registry constant",
            )
        if None not in (family.arity, site.arity) and site.arity != family.arity:
            self._flag(
                node, "CG003",
                f"tag {site.source} has {site.arity} component(s) after "
                f"the head but family {site.head!r} declares arity "
                f"{family.arity}",
            )


def lint_source(
    source: str,
    path: str = "<string>",
) -> List[Violation]:
    """Lint one module's source text; returns unsuppressed violations."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(
        path,
        is_hot=_path_matches(path, HOT_MODULES),
        wallclock_ok=_path_matches(path, WALLCLOCK_ALLOWED),
    )
    linter.visit(tree)
    disabled = _suppressions(source)
    kept = [
        v
        for v in linter.violations
        if v.code not in disabled.get(v.line, set())
    ]
    return sorted(kept, key=lambda v: (v.path, v.line, v.col, v.code))


def _iter_py_files(paths: Iterable[str]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Iterable[str]) -> List[Violation]:
    """Lint every ``*.py`` file under the given files/directories."""
    violations: List[Violation] = []
    for f in _iter_py_files(paths):
        violations.extend(lint_source(f.read_text(encoding="utf-8"), str(f)))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="project-specific reproducibility linter "
                    "(RPR001-RPR006) and comm tag discipline (CG001-CG003)",
    )
    parser.add_argument("paths", nargs="*", default=["src/"],
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, summary in sorted(RULES.items()):
            print(f"{code}  {summary}")
        return 0

    try:
        violations = lint_paths(args.paths or ["src/"])
    except SyntaxError as exc:
        print(f"repro-lint: parse error: {exc}", file=sys.stderr)
        return 2
    for v in violations:
        print(v.render())
    if violations:
        print(f"repro-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
