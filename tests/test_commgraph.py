"""Tests for the commgraph static layer: tag registry, skeleton
extraction, checks CG001-CG003, the runtime's ownership of protocol
shape, and the repro-comm CLI."""

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.commgraph import (
    check_skeletons,
    extract_paths,
    render_skeleton,
    to_dot,
)
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
# extraction over the real modules
# ---------------------------------------------------------------------------
class TestExtraction:
    @pytest.fixture(scope="class")
    def skeletons(self):
        return extract_paths(COMM_MODULES)

    def test_real_programs_extracted(self, skeletons):
        names = {sk.name for sk in skeletons}
        assert "pfasst_rank_program" in names
        assert "VirtualComm.split" in names
        assert "SpaceParallelTreeEvaluator.field_program" in names
        assert {"bcast", "allreduce", "allgather"} <= names

    def test_every_comm_op_resolves_its_head(self):
        # a tag the extractor cannot resolve (a module-level constant, a
        # computed head) is invisible to CG001-CG003: every op in src/
        # must resolve, or take its tag from the caller (collectives)
        heads = set()
        for sk in extract_paths([str(SRC)]):
            for op in sk.ops:
                if op.kind not in ("send", "recv", "collective"):
                    continue
                assert (op.tag.head is not None
                        or op.tag.resolved_via == "param"), (sk.name, op)
                heads.add(op.tag.head)
        assert {"pred", "lvl", "ftsync", "ftpred", "ftub", "ftwarm",
                "rtol", "blockend", "space:digest", "space:brx",
                "node:f", "_split"} <= heads

    def test_split_skeleton_has_both_phases(self, skeletons):
        split = next(sk for sk in skeletons
                     if sk.name == "VirtualComm.split")
        kinds = [(op.kind, op.tag.head if op.tag else None)
                 for op in split.comm_ops()]
        assert ("send", tags.SPLIT) in kinds
        assert ("recv", tags.SPLIT) in kinds

    def test_render_and_dot(self, skeletons):
        grid = next(sk for sk in skeletons
                    if sk.name == "pfasst_rank_program")
        text = render_skeleton(grid)
        assert "space:digest" in text
        dot = to_dot(skeletons)
        assert dot.startswith("digraph") and "pfasst_rank_program" in dot

    def test_nested_subcomm_split_extracted(self, tmp_path):
        # a split of a split: the extractor sees both split ops and the
        # send on the innermost subcomm with a registry tag
        src = textwrap.dedent("""
            from repro.parallel import tags

            def prog(comm):
                row = yield from comm.split(comm.rank % 2, comm.rank // 2)
                cell = yield from row.split(row.rank % 2, 0)
                yield cell.send(0, (tags.PRED, 0, 0, 0), 1.0)
                x = yield cell.recv(0, (tags.PRED, 0, 0, 0))
                return x
        """)
        path = tmp_path / "nested.py"
        path.write_text(src)
        [sk] = extract_paths([str(path)])
        splits = [op for op in sk.ops if op.kind == "split"]
        assert len(splits) == 2
        assert [op.comm for op in splits] == ["comm", "row"]
        sends = [op for op in sk.ops if op.kind == "send"]
        assert sends and sends[0].tag.head == "pred"
        assert sends[0].comm == "cell"


# ---------------------------------------------------------------------------
# checks: the clean tree and one seeded mutation per rule
# ---------------------------------------------------------------------------
def _check_snippet(tmp_path, source, name="mod.py", subdir="pfasst"):
    d = tmp_path / subdir
    d.mkdir(exist_ok=True)
    p = d / name
    p.write_text(textwrap.dedent(source))
    return check_skeletons(extract_paths([str(p)]))


class TestChecks:
    def test_repository_is_clean(self):
        findings = check_skeletons(extract_paths(COMM_MODULES))
        assert findings == []

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
        assert main(["check", *COMM_MODULES]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_check_seeded_mutation_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "pfasst"
        bad.mkdir()
        (bad / "bad.py").write_text(textwrap.dedent("""
            def prog(comm, rank):
                x = yield comm.recv(rank - 1, ("bogus", 0))
        """))
        assert main(["check", str(bad)]) == 1
        assert "CG001" in capsys.readouterr().out

    def test_graph_ascii(self, capsys):
        assert main(["graph", COMM_MODULES[0],
                     "--root", "pfasst_rank_program"]) == 0
        assert "space:digest" in capsys.readouterr().out

    def test_graph_dot(self, capsys):
        assert main(["graph", COMM_MODULES[3], "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_graph_unknown_root(self, capsys):
        assert main(["graph", COMM_MODULES[0], "--root", "nope"]) == 2

    #: ``repro-comm certify --verify`` on the two shapes CI runs; the
    #: digests CHANGES.md quoted by hand from PR 21 on, now committed
    CERTIFIED = {
        (): "2150a0aa9b44047a88982eb3229112f8",
        ("--p-time", "2", "--p-space", "1", "--p-nodes", "2",
         "--sweeper", "diagonal"): "c69a121cbc2d4a6f41559a997b4628c2",
    }

    @pytest.mark.parametrize("shape", CERTIFIED, ids=["2x2x1", "2x1x2-diag"])
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
