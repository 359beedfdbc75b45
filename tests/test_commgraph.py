"""Tests for tag discipline: the tag registry, repro-lint's comm tag
pass (CG001-CG003) and its census of tag sites in ``src/``, the
runtime's ownership of protocol shape, and the repro-comm CLI."""

import ast
import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.commgraph.cli import main
from repro.parallel import (
    DeadlockError,
    OrphanMessageWarning,
    Scheduler,
    tags,
)
from repro.parallel.collectives import allreduce, bcast
from repro.parallel.tags import (
    REGISTRY,
    TagCollisionError,
    TagRegistry,
    attempt_of,
    family_of,
    tag_class,
    tag_head,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

COMM_MODULES = [
    str(SRC / "repro/pfasst/controller.py"),
    str(SRC / "repro/parallel/collectives.py"),
    str(SRC / "repro/parallel/simmpi.py"),
    str(SRC / "repro/tree/parallel.py"),
]


# ---------------------------------------------------------------------------
# tag registry
# ---------------------------------------------------------------------------
class TestTagRegistry:
    def test_duplicate_head_collides(self):
        reg = TagRegistry()
        reg.register("x", "a")
        with pytest.raises(TagCollisionError):
            reg.register("x", "b")

    def test_historical_values_preserved(self):
        # the migration must keep message streams byte-identical
        assert tags.PRED == "pred"
        assert tags.FTSYNC == "ftsync"
        assert tags.SPACE_DIGEST == "space:digest"
        assert tags.SPLIT == "_split"
        assert tags.SUBCOMM == "sub"
        assert tags.BCAST == "_bcast"

    def test_family_lookup(self):
        fam = family_of((tags.PRED, 0, 1, 2))
        assert fam is not None and fam.subsystem == "pfasst"
        assert fam.arity == 3
        assert family_of(("nope", 1)) is None

    def test_tag_class_plain(self):
        assert tag_class("space:brx") == "space:brx"
        assert tag_class((tags.LVL, 0, 0, 1, 2)) == "lvl"

    def test_tag_class_unwraps_subcomm(self):
        wrapped = ((tags.SUBCOMM, 0, 1), (tags.PRED, 0, 0, 1))
        assert tag_class(wrapped) == "pred"

    def test_tag_class_unwraps_nested_subcomm(self):
        # the (comm_id, (comm_id, tag)) path of a split-of-a-split
        inner = ((tags.SUBCOMM, 1, 0), (tags.PRED, 2, 0, 1))
        nested = ((tags.SUBCOMM, 0, 1), inner)
        assert tag_class(nested) == "pred"
        assert attempt_of(nested) == 0

    def test_tag_class_split_protocol(self):
        # split tags are ((SPLIT, seq), src): a tuple *head*
        assert tag_class(((tags.SPLIT, 0), 3)) == tags.SPLIT
        assert tag_class(((tags.SPLIT, 1), "b", 2)) == tags.SPLIT

    def test_derived_collective_tags_classify(self):
        base = (tags.FTSYNC, 0, 1, 2)
        assert tag_class((base, 1)) == "ftsync"       # butterfly mask
        assert tag_class((base, "r")) == "ftsync"     # reduce half
        assert attempt_of((base, "r")) == 1

    def test_tag_head(self):
        assert tag_head((tags.RTOL, 1, 2, 3)) == "rtol"
        assert tag_head("plain") == "plain"
        assert tag_head(42) == 42  # bare non-tuple tags pass through


# ---------------------------------------------------------------------------
# tag sites over the real modules
# ---------------------------------------------------------------------------
def _tag_sites(paths):
    """(path relative to src/repro, site) of every comm call site."""
    out = []
    for f in lint._iter_py_files(paths):
        linter = lint._Linter(str(f), is_hot=False, wallclock_ok=False)
        linter.visit(ast.parse(f.read_text(encoding="utf-8")))
        rel = f.resolve().relative_to(SRC / "repro").as_posix()
        out.extend((rel, site) for site in linter.tag_sites)
    return out


class TestExtraction:
    """The census pins what the pass sees in ``src/``: a checker that
    stops recognising a call site or resolving a tag goes blind to
    CG001-CG003 there without reporting anything."""

    @pytest.fixture(scope="class")
    def sites(self):
        return _tag_sites([str(SRC)])

    def test_real_programs_extracted(self, sites):
        assert Counter(path for path, _ in sites) == {
            "pfasst/controller.py": 17,
            "parallel/collectives.py": 8,
            "parallel/simmpi.py": 4,
            "tree/parallel.py": 2,
            "sdc/sweeper.py": 1,
        }

    def test_every_comm_op_resolves_its_head(self, sites):
        # a tag the pass cannot resolve (a module-level constant, a
        # computed head) is invisible to CG001-CG003: every site in src/
        # must resolve, or take its tag from the caller (collectives)
        assert len(sites) == 32
        assert Counter(s.kind for _, s in sites) == {
            "collective": 14, "send": 9, "recv": 9}
        assert Counter(s.via for _, s in sites) == {
            "registry": 20, "param": 8, "derived": 4}
        for path, site in sites:
            assert (site.head is not None) == (site.via != "param"), (
                path, site)
        assert {s.head for _, s in sites} - {None} == {
            "pred", "lvl", "ftsync", "ftpred", "ftub", "ftwarm", "ftrow",
            "rtol", "blockend", "space:digest", "space:brx", "space:rhs",
            "node:f", "node:digest", "_split"}

    def test_split_skeleton_has_both_phases(self, sites):
        split = {(s.kind, s.head, s.via) for path, s in sites
                 if path == "parallel/simmpi.py"}
        assert split == {("send", tags.SPLIT, "derived"),
                         ("recv", tags.SPLIT, "derived")}

    def test_nested_subcomm_split_extracted(self):
        # a split of a split is no tag site; the send and recv on the
        # innermost subcomm resolve their registry head
        src = textwrap.dedent("""
            from repro.parallel import tags

            def prog(comm):
                row = yield from comm.split(comm.rank % 2, comm.rank // 2)
                cell = yield from row.split(row.rank % 2, 0)
                yield cell.send(0, (tags.PRED, 0, 0, 0), 1.0)
                x = yield cell.recv(0, (tags.PRED, 0, 0, 0))
                return x
        """)
        linter = lint._Linter("pfasst/nested.py", False, False)
        linter.visit(ast.parse(src))
        assert [(s.kind, s.head, s.arity, s.via) for s in linter.tag_sites] \
            == [("send", "pred", 3, "registry"),
                ("recv", "pred", 3, "registry")]
        assert lint.lint_source(src, "pfasst/nested.py") == []


# ---------------------------------------------------------------------------
# checks: the clean tree and one seeded mutation per rule
# ---------------------------------------------------------------------------
def _check_snippet(tmp_path, source, name="mod.py", subdir="pfasst"):
    return lint.lint_source(textwrap.dedent(source),
                            str(tmp_path / subdir / name))


class TestChecks:
    def test_repository_is_clean(self):
        findings = [v for v in lint.lint_paths(COMM_MODULES)
                    if v.code.startswith("CG")]
        assert findings == []

    def test_no_tag_check_is_suppressed(self):
        for f in sorted(SRC.rglob("*.py")):
            text = f.read_text(encoding="utf-8")
            assert not re.search(r"repro-lint:\s*disable=[^\n]*CG", text), f

    def test_cg001_unregistered_head(self, tmp_path):
        fs = _check_snippet(tmp_path, """
            def prog(comm, rank):
                yield comm.send(rank + 1, ("bogus", 0), 1.0)
                x = yield comm.recv(rank - 1, ("bogus", 0))
        """)
        assert {f.code for f in fs} == {"CG001"}

    def test_cg002_cross_subsystem_literal(self, tmp_path):
        # a pfasst module re-spelling the space subsystem's head
        fs = _check_snippet(tmp_path, """
            def prog(comm, rank):
                yield comm.send(rank + 1, ("space:brx", 0), 1.0)
                x = yield comm.recv(rank - 1, ("space:brx", 0))
        """)
        assert "CG002" in {f.code for f in fs}

    def test_registry_constant_crosses_subsystems_cleanly(self, tmp_path):
        # importing another subsystem's *constant* is intentional reuse
        fs = _check_snippet(tmp_path, """
            from repro.parallel import tags

            def prog(comm, rank):
                yield comm.send(rank + 1, (tags.SPACE_BRX, 0), 1.0)
                x = yield comm.recv(rank - 1, (tags.SPACE_BRX, 0))
        """)
        assert "CG002" not in {f.code for f in fs}

    def test_cg003_arity_mismatch(self, tmp_path):
        fs = _check_snippet(tmp_path, """
            from repro.parallel import tags

            def prog(comm, rank):
                yield comm.send(rank + 1, (tags.PRED, 0), 1.0)
                x = yield comm.recv(rank - 1, (tags.PRED, 0))
        """)
        assert {f.code for f in fs} == {"CG003"}

    def test_cg002_literal_from_unowned_module(self, tmp_path):
        # sdc/ belongs to no tag subsystem: a literal head spelled there
        # is foreign to every family, the registry constant is not
        fs = _check_snippet(tmp_path, """
            from repro.parallel import tags

            def prog(comm, rank):
                yield comm.send(rank + 1, (tags.PRED, 0, 0, 1), 1.0)
                yield comm.send(rank + 1, ("pred", 0, 0, 1), 1.0)
        """, subdir="sdc")
        assert [(f.code, f.line) for f in fs] == [("CG002", 6)]
        assert "no subsystem owns" in fs[0].message
        assert "None" not in fs[0].message


class TestLiteralTags:
    """Raw tag literals at comm call sites, outside any subsystem."""

    def _codes(self, tmp_path, source):
        return [f.code for f in _check_snippet(tmp_path, source,
                                                subdir="sdc")]

    def test_send_with_tuple_literal(self, tmp_path):
        assert self._codes(tmp_path, """
            def prog(comm, rank):
                yield comm.send(rank + 1, ("lvl", 0, 0, 1, 2), 1.0)
        """) == ["CG002"]

    def test_recv_with_string_literal(self, tmp_path):
        assert self._codes(tmp_path, """
            def prog(comm):
                x = yield comm.recv(0, "raw")
        """) == ["CG001"]

    def test_collective_tag_keyword(self, tmp_path):
        assert self._codes(tmp_path, """
            def prog(comm):
                yield from allreduce(comm, 1.0, tag=("ftsync", 0, 1, 2))
        """) == ["CG002"]

    def test_collective_tag_positional(self, tmp_path):
        assert self._codes(tmp_path, """
            def prog(comm):
                v = yield from bcast(comm, 1.0, 0, ("blockend", 0, 0))
        """) == ["CG002"]

    def test_generator_send_not_a_comm_site(self, tmp_path):
        # gen.send(value) is the generator protocol: one argument, no tag
        assert self._codes(tmp_path, """
            def prog(gen):
                x = yield gen.send("pred")
        """) == []


# ---------------------------------------------------------------------------
# protocol shape: owned by the runtime, which names the channel
# ---------------------------------------------------------------------------
class TestProtocolShapeAtRunTime:
    """Pairing and collective symmetry fail the first run that reaches
    them: a blocked recv raises ``DeadlockError`` with the wait-for graph
    (see ``test_commcheck.py``), an undelivered message the
    ``OrphanMessageWarning`` that the test configuration makes an error."""

    def test_unreceived_send_fails_the_run(self):
        def prog(comm):
            if comm.rank == 0:
                yield comm.send(1, (tags.FTUB, 0, 1), 1.0)
            else:
                yield comm.work(0.0)

        with pytest.raises(OrphanMessageWarning, match=re.escape(
                "rank 0 -> rank 1 tag=('ftub', 0, 1)")):
            Scheduler(2, measure_compute=False).run(prog)

    def test_divergent_collective_sequence_fails_the_run(self):
        def prog(comm):
            if comm.rank == 0:
                yield from allreduce(comm, 1.0, tag=(tags.RTOL, 0, 0, 0))
            else:
                yield from bcast(comm, 1.0)

        with pytest.raises(DeadlockError) as exc_info:
            Scheduler(2, measure_compute=False).run(prog)
        msg = str(exc_info.value)
        assert "rank 0 -> rank 1  (recv source=1, tag=((('rtol'" in msg
        assert "rank 1 -> rank 0  (recv source=0, tag=('_bcast', 1))" in msg


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_check_clean_exit_zero(self, capsys):
        # the tag checks run in repro-lint; repro-comm only certifies
        assert lint.main(COMM_MODULES) == 0
        assert capsys.readouterr().out == ""

    def test_check_seeded_mutation_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "pfasst"
        bad.mkdir()
        (bad / "bad.py").write_text(textwrap.dedent("""
            def prog(comm, rank):
                x = yield comm.recv(rank - 1, ("bogus", 0))
        """))
        assert lint.main([str(bad)]) == 1
        assert "CG001" in capsys.readouterr().out

    def test_only_certify_is_offered(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{certify}" in capsys.readouterr().out
        for gone in ("check", "graph"):
            with pytest.raises(SystemExit) as exc_info:
                main([gone, "src/"])
            assert exc_info.value.code == 2

    #: ``repro-comm certify --verify`` on the three shapes CI runs, at
    #: the happens-before digest format ``repro-hb-dag/2``
    CERTIFIED = {
        (): "50941b60696df5d8f89f2347c0bbb95f",
        ("--p-time", "2", "--p-space", "1", "--p-nodes", "2",
         "--sweeper", "diagonal"): "e60dbd96dac650c77c96891f86a622e2",
        # the grid shape of the ctrl-n64 end-to-end workload
        ("--p-time", "4", "--p-space", "1", "--p-nodes", "3",
         "--sweeper", "diagonal", "--steps", "4"):
            "dfe4e78ebbfaae835d2a6adb155e7285",
    }

    @pytest.mark.parametrize("shape", CERTIFIED,
                             ids=["2x2x1", "2x1x2-diag", "4x1x3-diag"])
    def test_certify_digest_is_the_committed_one(self, shape, capsys):
        assert main(["certify", *shape, "--verify"]) == 0
        assert (f"certified deterministic (digest {self.CERTIFIED[shape]})"
                in capsys.readouterr().err)

    def test_certify_fails_on_an_undelivered_message(self, monkeypatch,
                                                     capsys):
        """A run that leaves a message undelivered is not certified, even
        with a race-free, replay-stable digest; the channel is named."""
        from repro.pfasst import controller

        def orphaning(program):
            def wrapped(comm, *args):
                result = yield from program(comm, *args)
                if comm.rank == 0:  # a send no rank ever receives
                    yield comm.send(1, (tags.FTUB, 9, 9), 1.0)
                return result
            return wrapped

        class OrphaningScheduler(Scheduler):
            def run(self, program, args=()):
                return super().run(orphaning(program), args)

        monkeypatch.setattr(controller, "Scheduler", OrphaningScheduler)
        assert main(["certify", "--p-space", "1", "--particles", "32",
                     "--verify"]) == 1
        err = capsys.readouterr().err
        assert "rank 0 -> rank 1 tag=('ftub', 9, 9)" in err
        assert "certified deterministic" not in err
