"""AST extraction of communication skeletons from rank programs.

A *rank program* in this repository is a Python generator that yields
simulated-MPI operations (``comm.send`` / ``comm.recv`` constructors,
``Compute`` tasks) and drives collectives with ``yield from``.  This
module reconstructs, per generator function, the **communication
skeleton**: the ordered list of comm operations with their symbolic peer
expressions, resolved tag shapes, enclosing guards and loops — the
static counterpart of the op stream the scheduler sees at run time.

The extractor understands the idioms the code base actually uses:

* methods and nested closures (``Step._predictor``,
  ``Recovery._warm_rebuild`` and friends) are extracted as separate
  skeletons with qualified names, and call sites to them become
  ``call`` ops that :func:`flatten` inlines;
* collectives invoked as *arguments* of wrapper generators —
  ``yield from rec.protocol(allreduce(comm, ...), "...")`` — are found
  by scanning the whole ``yield from`` expression tree;
* tag expressions are resolved through the module's imports of
  :mod:`repro.parallel.tags` (``tags.PRED``-style attributes and direct
  constant imports), through simple local assignments
  (``tag = (SPLIT, seq)`` then ``(tag, src)``), and down to raw
  literals — each resolved tag records *how* it resolved
  (``literal`` / ``registry`` / ``derived`` / ``param`` / ``unknown``),
  which the checks use to decide what they can assert.

No code is executed: everything is derived from ``ast`` plus the import
of the (side-effect-free) tags registry itself.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.parallel import tags as _tags_module

__all__ = [
    "TagShape",
    "Guard",
    "CommOp",
    "Skeleton",
    "extract_module",
    "extract_paths",
    "flatten",
    "render_skeleton",
    "to_dot",
]

#: collective generator names -> positional index of their ``tag`` arg
COLLECTIVES: Dict[str, int] = {
    "bcast": 3,
    "reduce": 4,
    "allreduce": 3,
    "scatter": 3,
    "allgather": 2,
}

#: default base tag per collective (mirrors repro.parallel.collectives)
COLLECTIVE_DEFAULT_TAGS: Dict[str, str] = {
    "bcast": _tags_module.BCAST,
    "reduce": _tags_module.REDUCE,
    "allreduce": _tags_module.ALLREDUCE,
    "scatter": _tags_module.SCATTER,
    "allgather": _tags_module.ALLGATHER,
}

#: names whose mention makes an expression rank-dependent
_RANK_NAMES = {"rank", "me", "vrank", "world_rank", "t_idx", "s_idx", "n_idx"}


# -- resolved tag values ----------------------------------------------------
@dataclass(frozen=True)
class TagShape:
    """Shape of one tag expression at a comm call site.

    ``head`` is the innermost string head when resolvable, else ``None``.
    ``arity`` is the number of tuple components after the head for
    directly constructed tags (``(PRED, block, attempt, j)`` -> 3), 0
    for bare string tags, and ``None`` for derived/unresolvable shapes.
    ``resolved_via`` is one of ``literal`` (raw string constant at the
    call site), ``registry`` (a :mod:`repro.parallel.tags` constant),
    ``derived`` (tuple wrapping of an already-resolved tag, e.g. the
    split protocol's ``(tag, src)``), ``param`` (a function parameter —
    the caller decides), or ``unknown``.
    """

    head: Optional[str]
    arity: Optional[int]
    source: str
    resolved_via: str


@dataclass(frozen=True)
class Guard:
    """One enclosing ``if`` condition of a comm op."""

    source: str
    rank_dependent: bool
    negated: bool
    test: Any = field(compare=False, repr=False, default=None)


@dataclass(frozen=True)
class CommOp:
    """One extracted communication operation."""

    #: ``send`` | ``recv`` | ``collective`` | ``split`` | ``compute`` | ``call``
    kind: str
    #: collective/callee name for ``collective``/``call``, else op kind
    fn: str
    #: source text of the communicator expression (``comm``, ``space``...)
    comm: str
    #: source text of the peer expression (dest/source), None otherwise
    peer: Optional[str]
    tag: Optional[TagShape]
    guards: Tuple[Guard, ...]
    #: nesting depth of enclosing for/while loops
    loops: int
    line: int
    #: peer expression AST (mini-simulation), not part of equality
    peer_ast: Any = field(compare=False, repr=False, default=None)


@dataclass
class Skeleton:
    """Communication skeleton of one generator function."""

    name: str
    module: str
    path: str
    line: int
    params: Tuple[str, ...]
    ops: List[CommOp] = field(default_factory=list)

    @property
    def calls(self) -> List[str]:
        return [op.fn for op in self.ops if op.kind == "call"]

    def comm_ops(self) -> List[CommOp]:
        return [op for op in self.ops if op.kind != "call"]


# -- resolution environment -------------------------------------------------
class _ModuleMarker:
    """Stand-in for an imported :mod:`repro.parallel.tags` binding."""

    def getattr(self, name: str) -> Optional[str]:
        value = getattr(_tags_module, name, None)
        return value if isinstance(value, str) else None


_TAGS_MODULE_MARKER = _ModuleMarker()

# resolved value representations
_Str = Tuple[str, str, str]          # ("str", value, via)
_TupleV = Tuple[str, list]           # ("tuple", [resolved...])
_Other = Tuple[str, str]             # ("param"|"unknown", source)
Resolved = Union[_Str, _TupleV, _Other]


def _module_env(tree: ast.Module) -> Dict[str, Any]:
    """Names bound to the tags registry by this module's imports."""
    env: Dict[str, Any] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "repro.parallel":
                for alias in node.names:
                    if alias.name == "tags":
                        env[alias.asname or "tags"] = _TAGS_MODULE_MARKER
            elif node.module == "repro.parallel.tags":
                for alias in node.names:
                    value = _TAGS_MODULE_MARKER.getattr(alias.name)
                    if value is not None:
                        env[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro.parallel.tags" and alias.asname:
                    env[alias.asname] = _TAGS_MODULE_MARKER
    return env


def _src(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:
        return "<unparse-failed>"


def _mentions_rank(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in _RANK_NAMES:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in ("rank",
                                                           "world_rank"):
            return True
    return False


def _resolve(node: ast.AST, env: Dict[str, Any], params: Sequence[str],
             local: Dict[str, Resolved]) -> Resolved:
    """Best-effort symbolic value of a tag expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ("str", node.value, "literal")
    if isinstance(node, ast.Name):
        if node.id in local:
            return local[node.id]
        bound = env.get(node.id)
        if isinstance(bound, str):
            return ("str", bound, "registry")
        if node.id in params:
            return ("param", node.id)
        return ("unknown", node.id)
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and env.get(base.id) is _TAGS_MODULE_MARKER:
            value = _TAGS_MODULE_MARKER.getattr(node.attr)
            if value is not None:
                return ("str", value, "registry")
        return ("unknown", _src(node))
    if isinstance(node, ast.Tuple):
        return ("tuple",
                [_resolve(e, env, params, local) for e in node.elts])
    return ("unknown", _src(node))


def _shape_of(resolved: Resolved, source: str) -> TagShape:
    """Collapse a resolved value to the (head, arity, via) shape."""
    kind = resolved[0]
    if kind == "str":
        return TagShape(head=resolved[1], arity=0, source=source,
                        resolved_via=resolved[2])
    if kind == "tuple":
        elems = resolved[1]
        if not elems:
            return TagShape(None, None, source, "unknown")
        head = elems[0]
        if head[0] == "str":
            return TagShape(head=head[1], arity=len(elems) - 1,
                            source=source, resolved_via=head[2])
        if head[0] == "tuple":
            inner = _shape_of(head, source)
            return TagShape(head=inner.head, arity=None, source=source,
                            resolved_via=("derived" if inner.head is not None
                                          else "unknown"))
        if head[0] == "param":
            return TagShape(None, None, source, "param")
        return TagShape(None, None, source, "unknown")
    if kind == "param":
        return TagShape(None, None, source, "param")
    return TagShape(None, None, source, "unknown")


# -- the per-function walker ------------------------------------------------
class _FnWalker:
    def __init__(self, fn: ast.FunctionDef, qualname: str, module: str,
                 path: str, env: Dict[str, Any]) -> None:
        self.fn = fn
        self.env = env
        params = [a.arg for a in (fn.args.posonlyargs + fn.args.args
                                  + fn.args.kwonlyargs)]
        self.skeleton = Skeleton(
            name=qualname, module=module, path=path, line=fn.lineno,
            params=tuple(params),
        )
        self._guards: List[Guard] = []
        self._loops = 0
        self._local: Dict[str, Resolved] = {}

    def run(self) -> Skeleton:
        self._walk_body(self.fn.body)
        return self.skeleton

    # -- statements ---------------------------------------------------
    def _walk_body(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs are extracted as their own skeletons
        if isinstance(stmt, ast.If):
            guard = Guard(source=_src(stmt.test),
                          rank_dependent=_mentions_rank(stmt.test),
                          negated=False, test=stmt.test)
            self._guards.append(guard)
            self._walk_body(stmt.body)
            self._guards.pop()
            if stmt.orelse:
                self._guards.append(Guard(
                    source=guard.source, rank_dependent=guard.rank_dependent,
                    negated=True, test=stmt.test,
                ))
                self._walk_body(stmt.orelse)
                self._guards.pop()
            return
        if isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.While):
                self._scan_expr(stmt.test)
            else:
                self._scan_expr(stmt.iter)
            self._loops += 1
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
            self._loops -= 1
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
            self._walk_body(stmt.body)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            if (len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                resolved = _resolve(stmt.value, self.env,
                                    self.skeleton.params, self._local)
                if resolved[0] in ("str", "tuple"):
                    self._local[stmt.targets[0].id] = resolved
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child)

    # -- expressions --------------------------------------------------
    def _scan_expr(self, expr: Optional[ast.expr]) -> None:
        if expr is None:
            return
        nodes = [n for n in ast.walk(expr)
                 if isinstance(n, (ast.Yield, ast.YieldFrom))]
        nodes.sort(key=lambda n: (n.lineno, n.col_offset))
        for node in nodes:
            if isinstance(node, ast.Yield):
                self._handle_yield(node)
            else:
                self._handle_yield_from(node)

    def _handle_yield(self, node: ast.Yield) -> None:
        value = node.value
        if not isinstance(value, ast.Call):
            return
        func = value.func
        if isinstance(func, ast.Attribute):
            if func.attr == "send" and len(value.args) >= 2:
                self._emit("send", "send", _src(func.value),
                           value.args[0], value.args[1], node.lineno)
                return
            if func.attr == "recv" and len(value.args) >= 2:
                self._emit("recv", "recv", _src(func.value),
                           value.args[0], value.args[1], node.lineno)
                return
            if func.attr in ("annotate", "work"):
                return
        if isinstance(func, ast.Name) and func.id == "Compute":
            self.skeleton.ops.append(CommOp(
                kind="compute", fn="compute", comm="", peer=None, tag=None,
                guards=tuple(self._guards), loops=self._loops,
                line=node.lineno,
            ))

    def _handle_yield_from(self, node: ast.YieldFrom) -> None:
        # collectives may sit anywhere in the delegated expression
        # (``protocol(allreduce(...), "...")``), so scan the whole tree
        calls = [c for c in ast.walk(node.value) if isinstance(c, ast.Call)]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        direct_emitted = False
        for call in calls:
            name = self._callee_name(call.func)
            if name in COLLECTIVES:
                self._emit_collective(name, call, node.lineno)
                direct_emitted = direct_emitted or call is node.value
            elif (isinstance(call.func, ast.Attribute)
                  and call.func.attr == "split"):
                self.skeleton.ops.append(CommOp(
                    kind="split", fn="split", comm=_src(call.func.value),
                    peer=None, tag=None, guards=tuple(self._guards),
                    loops=self._loops, line=node.lineno,
                ))
                direct_emitted = direct_emitted or call is node.value
        # a direct call to another generator becomes a call op so that
        # flatten can inline module-local targets (``_predictor``,
        # ``protocol`` — the latter's argument collectives were already
        # emitted above, the call op only inlines ops of its own body)
        if isinstance(node.value, ast.Call) and not direct_emitted:
            name = self._callee_name(node.value.func)
            if name and name not in COLLECTIVES:
                self.skeleton.ops.append(CommOp(
                    kind="call", fn=name, comm="", peer=None, tag=None,
                    guards=tuple(self._guards), loops=self._loops,
                    line=node.lineno,
                ))

    @staticmethod
    def _callee_name(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _emit(self, kind: str, fn: str, comm: str, peer: ast.expr,
              tag: ast.expr, line: int) -> None:
        resolved = _resolve(tag, self.env, self.skeleton.params, self._local)
        self.skeleton.ops.append(CommOp(
            kind=kind, fn=fn, comm=comm, peer=_src(peer),
            tag=_shape_of(resolved, _src(tag)),
            guards=tuple(self._guards), loops=self._loops, line=line,
            peer_ast=peer,
        ))

    def _emit_collective(self, name: str, call: ast.Call,
                         line: int) -> None:
        tag_expr: Optional[ast.expr] = None
        for kw in call.keywords:
            if kw.arg == "tag":
                tag_expr = kw.value
        if tag_expr is None:
            idx = COLLECTIVES[name]
            if len(call.args) > idx:
                tag_expr = call.args[idx]
        if tag_expr is None:
            shape = TagShape(head=COLLECTIVE_DEFAULT_TAGS[name], arity=0,
                             source=f"<default:{name}>",
                             resolved_via="registry")
        else:
            resolved = _resolve(tag_expr, self.env, self.skeleton.params,
                                self._local)
            shape = _shape_of(resolved, _src(tag_expr))
        comm = _src(call.args[0]) if call.args else ""
        self.skeleton.ops.append(CommOp(
            kind="collective", fn=name, comm=comm, peer=None, tag=shape,
            guards=tuple(self._guards), loops=self._loops, line=line,
        ))


# -- module-level extraction ------------------------------------------------
def _is_generator(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            owner = _owner_fn.get(node)
            if owner is fn:
                return True
    return False


_owner_fn: Dict[ast.AST, ast.FunctionDef] = {}


def _index_owners(tree: ast.Module) -> None:
    """Map every yield node to its immediately enclosing function."""

    def visit(node: ast.AST, owner: Optional[ast.FunctionDef]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)  # type: ignore[arg-type]
            elif isinstance(child, ast.Lambda):
                visit(child, None)
            else:
                if isinstance(child, (ast.Yield, ast.YieldFrom)):
                    if owner is not None:
                        _owner_fn[child] = owner
                visit(child, owner)

    visit(tree, None)


def extract_module(source: str, path: str = "<string>",
                   module: Optional[str] = None) -> List[Skeleton]:
    """Extract every generator function's skeleton from one module."""
    tree = ast.parse(source, filename=path)
    _owner_fn.clear()
    _index_owners(tree)
    env = _module_env(tree)
    if module is None:
        module = Path(path).stem
    skeletons: List[Skeleton] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                qual = f"{prefix}{child.name}"
                if _is_generator(child):
                    skeleton = _FnWalker(child, qual, module, path,
                                         env).run()
                    if skeleton.ops:
                        skeletons.append(skeleton)
                visit(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return skeletons


def extract_paths(paths: Sequence[Union[str, Path]]) -> List[Skeleton]:
    """Extract skeletons from files and/or directories of ``.py`` files."""
    files: List[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    out: List[Skeleton] = []
    for f in files:
        out.extend(extract_module(f.read_text(), path=str(f),
                                  module=_module_name(f)))
    return out


def _module_name(path: Path) -> str:
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    return ".".join(parts)


# -- flattening (call-op inlining) -----------------------------------------
def flatten(root: Skeleton, skeletons: Sequence[Skeleton],
            max_depth: int = 8) -> List[CommOp]:
    """Ops of ``root`` with local ``call`` ops inlined.

    Call targets resolve by qualified-name suffix within the same
    module (``_predictor`` matches ``Step._predictor``);
    cross-module calls stay as unresolved ``call`` ops and are dropped.
    Recursion is cycle-safe and depth-limited.
    """
    by_suffix: Dict[str, List[Skeleton]] = {}
    for sk in skeletons:
        if sk.module != root.module:
            continue
        by_suffix.setdefault(sk.name.rsplit(".", 1)[-1], []).append(sk)

    def expand(sk: Skeleton, depth: int, stack: Tuple[str, ...]
               ) -> List[CommOp]:
        if depth > max_depth or sk.name in stack:
            return []
        out: List[CommOp] = []
        for op in sk.ops:
            if op.kind != "call":
                out.append(op)
                continue
            targets = by_suffix.get(op.fn, [])
            # prefer a sibling/child of the current function
            target: Optional[Skeleton] = None
            for cand in targets:
                if cand.name != sk.name:
                    target = cand
                    break
            if target is not None:
                out.extend(expand(target, depth + 1, stack + (sk.name,)))
        return out

    return expand(root, 0, ())


def roots_of(skeletons: Sequence[Skeleton]) -> List[Skeleton]:
    """Skeletons not inlined by any other skeleton of the same module."""
    called: Dict[str, set] = {}
    for sk in skeletons:
        called.setdefault(sk.module, set()).update(sk.calls)
    return [
        sk for sk in skeletons
        if sk.name.rsplit(".", 1)[-1] not in called.get(sk.module, set())
    ]


# -- rendering --------------------------------------------------------------
def render_skeleton(sk: Skeleton) -> str:
    """ASCII rendering of one skeleton (one line per op)."""
    lines = [f"skeleton {sk.module}:{sk.name} ({sk.path}:{sk.line})"]
    for op in sk.ops:
        indent = "  " * (1 + op.loops)
        guard = ""
        if op.guards:
            parts = [("!" if g.negated else "") + g.source
                     for g in op.guards]
            guard = " [if " + " and ".join(parts) + "]"
        if op.kind in ("send", "recv"):
            arrow = "->" if op.kind == "send" else "<-"
            head = op.tag.head if op.tag else None
            lines.append(
                f"{indent}{op.kind} {arrow} {op.peer} "
                f"tag={op.tag.source if op.tag else '?'} "
                f"(head={head!r}, via={op.tag.resolved_via if op.tag else '?'})"
                f"{guard}"
            )
        elif op.kind == "collective":
            head = op.tag.head if op.tag else None
            lines.append(
                f"{indent}{op.fn}({op.comm}) tag head={head!r}{guard}"
            )
        elif op.kind == "split":
            lines.append(f"{indent}split({op.comm}){guard}")
        elif op.kind == "compute":
            lines.append(f"{indent}compute{guard}")
        else:
            lines.append(f"{indent}call {op.fn}(){guard}")
    return "\n".join(lines)


def to_dot(skeletons: Sequence[Skeleton]) -> str:
    """GraphViz DOT of skeleton call structure and channel heads."""
    lines = ["digraph commgraph {", "  rankdir=LR;",
             '  node [shape=box, fontname="monospace"];']
    for sk in skeletons:
        node = sk.name.replace(".", "_")
        heads = sorted({
            repr(op.tag.head) for op in sk.ops
            if op.tag is not None and op.tag.head is not None
        })
        label = sk.name + "\\n" + ", ".join(heads)
        lines.append(f'  "{node}" [label="{label}"];')
        for callee in sk.calls:
            lines.append(f'  "{node}" -> "{callee}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines)
