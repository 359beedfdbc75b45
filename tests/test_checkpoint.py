"""Durable checkpoint/restart: containers, resume byte-identity, corruption.

The contract pinned here is the strongest one the controller offers: a
run killed mid-iteration and resumed via ``resume_from=`` produces final
u-blocks and residual histories *byte-identical* to an uninterrupted
run — attaching a checkpointer costs zero scheduler ops, and resuming
replays exactly the iterations the uninterrupted run would have
executed.
"""

import io
import json

import numpy as np
import pytest

from repro.analysis.commcheck import freeze
from repro.analysis.commgraph.cli import _smoke_problem
from repro.io import (
    CheckpointCorruptionError,
    read_crc_container,
    write_crc_container,
)
from repro.parallel.faults import FaultPlan, RankCrash, RankFailure
from repro.pfasst.checkpoint import (
    CHECKPOINT_MAGIC,
    RunCheckpoint,
    adopt_levels,
    snapshot_levels,
)
from repro.pfasst.controller import PfasstConfig, run_pfasst
from repro.pfasst.level import Level, LevelSpec

TOL = 1e-11


def _specs(problem):
    return [
        LevelSpec(problem, num_nodes=3, sweeps=1),
        LevelSpec(problem, num_nodes=2, sweeps=2),
    ]


def _config(**kw):
    kw.setdefault("t0", 0.0)
    kw.setdefault("t_end", 1.0)
    kw.setdefault("n_steps", 4)
    kw.setdefault("iterations", 8)
    return PfasstConfig(**kw)


@pytest.fixture
def u0():
    return np.array([1.0, 2.0])


def _frozen(res):
    return (
        freeze(res.u_end),
        tuple(freeze(v) for v in res.slice_end_values),
        tuple(tuple(r) for r in res.residuals),
        tuple(res.clocks),
        tuple(res.iterations_done),
    )


class TestCheckpointWriting:
    def test_fault_free_run_is_byte_identical_with_checkpointing(
        self, linear_problem, u0, tmp_path
    ):
        """Attaching a checkpointer adds zero ops: frozen bytes equal."""
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=2)
        ck = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2,
            checkpoint=tmp_path / "run.ckpt",
        )
        assert _frozen(ck) == _frozen(base)
        assert (tmp_path / "run.ckpt").exists()

    def test_final_checkpoint_covers_last_block(
        self, linear_problem, u0, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        res = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2, checkpoint=path
        )
        ckpt = RunCheckpoint.load(path)
        assert ckpt.block == _config().n_steps // 2 - 1
        assert ckpt.k == len(res.residuals[0]) - 1
        assert ckpt.p_time == 2


def _rewrite(path, edit, keep=lambda name: True):
    """Rewrite the checkpoint at ``path`` as another build would have
    written it: ``edit(meta)`` applied, only the arrays ``keep`` accepts."""
    with np.load(io.BytesIO(read_crc_container(path, CHECKPOINT_MAGIC))
                 ) as data:
        arrays = {k: data[k] for k in data.files if k != "meta" and keep(k)}
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                   dtype=np.uint8)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    write_crc_container(path, CHECKPOINT_MAGIC, buf.getvalue())


class TestRoundTrip:
    def test_save_load_round_trip(self, linear_problem, u0, tmp_path):
        path = tmp_path / "run.ckpt"
        run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2, checkpoint=path
        )
        ckpt = RunCheckpoint.load(path)
        path2 = tmp_path / "copy.ckpt"
        ckpt.save(path2)
        again = RunCheckpoint.load(path2)
        assert again.config_digest == ckpt.config_digest
        assert again.block == ckpt.block and again.k == ckpt.k
        assert np.array_equal(again.u_block, ckpt.u_block)
        assert again.residuals == ckpt.residuals
        assert any(entry["f0"] is not None
                   for blob in ckpt.levels.values() for entry in blob)
        for rank in ckpt.levels:
            for a, b in zip(again.levels[rank], ckpt.levels[rank]):
                for name in Level.STATE:
                    if b[name] is None:
                        assert a[name] is None
                    else:
                        assert np.array_equal(a[name], b[name])
        # files written before the rng_state slot was dropped hold
        # ``"rng_state": null`` in their meta
        _rewrite(path2, lambda meta: meta.update(rng_state=None))
        older = RunCheckpoint.load(path2)
        assert older.block == ckpt.block and older.k == ckpt.k
        assert np.array_equal(older.u_block, ckpt.u_block)

    def test_snapshot_adopt_levels_round_trip(self, linear_problem):
        from repro.pfasst.controller import _build_levels

        levels, _ = _build_levels(_specs(linear_problem), None)
        levels[0].U = np.ones((3, 2))
        levels[0].F = np.zeros((3, 2))
        levels[0].u0 = np.array([1.0, 2.0])
        blob = snapshot_levels(levels)
        levels[0].U[...] = 7.0
        adopt_levels(levels, blob)
        assert np.array_equal(levels[0].U, np.ones((3, 2)))
        with pytest.raises(ValueError, match="level"):
            adopt_levels(levels[:1], blob)

    def test_version_1_loads_without_f0(self, linear_problem, u0, tmp_path):
        """A version-1 file (``u0_dirty`` flags, no ``f0``) still loads;
        every level then evaluates its ``f0`` afresh."""
        path = tmp_path / "run.ckpt"
        run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2, checkpoint=path
        )

        def to_version_1(meta):
            meta["version"] = 1
            meta["u0_dirty"] = {str(r): [True] * meta["n_levels"]
                                for r in meta.pop("ranks")}

        _rewrite(path, to_version_1, keep=lambda k: not k.endswith("_f0"))
        old = RunCheckpoint.load(path)
        assert old.version == 1 and sorted(old.levels) == [0, 1]
        for blob in old.levels.values():
            assert [entry["f0"] for entry in blob] == [None, None]
            assert all(entry["U"] is not None for entry in blob)

    def test_newer_version_rejected(self, linear_problem, u0, tmp_path):
        path = tmp_path / "run.ckpt"
        run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2, checkpoint=path
        )
        ckpt = RunCheckpoint.load(path)
        ckpt.version = 99
        ckpt.save(path)
        with pytest.raises(ValueError, match="version"):
            RunCheckpoint.load(path)


class TestKillAndResume:
    def _killed_checkpoint(self, problem, u0, path, **cfg_kw):
        """Run with checkpointing and a mid-run crash under the default
        ``recovery="fail"`` policy — the simulated analogue of kill -9."""
        plan = FaultPlan(crashes=(RankCrash(rank=1, after_ops=20),))
        with pytest.raises(RankFailure):
            run_pfasst(
                _config(**cfg_kw), _specs(problem), u0, p_time=2,
                fault_plan=plan, checkpoint=path,
            )
        assert path.exists()

    def test_resume_reaches_byte_identical_state(
        self, linear_problem, u0, tmp_path
    ):
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=2)
        path = tmp_path / "killed.ckpt"
        self._killed_checkpoint(linear_problem, u0, path)
        ckpt = RunCheckpoint.load(path)
        resumed = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2,
            resume_from=path,
        )
        # the resume really did skip work
        assert (ckpt.block, ckpt.k) > (0, -1)
        # ...and still lands on the uninterrupted run's bytes
        assert np.array_equal(resumed.u_end, base.u_end)
        assert all(
            np.array_equal(a, b) for a, b in
            zip(resumed.slice_end_values, base.slice_end_values)
        )
        assert resumed.residuals == base.residuals
        assert resumed.iterations_done == base.iterations_done

    def test_resume_accepts_loaded_checkpoint_object(
        self, linear_problem, u0, tmp_path
    ):
        base = run_pfasst(_config(), _specs(linear_problem), u0, p_time=2)
        path = tmp_path / "killed.ckpt"
        self._killed_checkpoint(linear_problem, u0, path)
        resumed = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2,
            resume_from=RunCheckpoint.load(path),
        )
        assert np.array_equal(resumed.u_end, base.u_end)

    def test_resume_with_residual_tol(self, linear_problem, u0, tmp_path):
        cfg_kw = dict(iterations=30, residual_tol=TOL)
        base = run_pfasst(
            _config(**cfg_kw), _specs(linear_problem), u0, p_time=2
        )
        path = tmp_path / "killed.ckpt"
        self._killed_checkpoint(linear_problem, u0, path, **cfg_kw)
        resumed = run_pfasst(
            _config(**cfg_kw), _specs(linear_problem), u0, p_time=2,
            resume_from=path,
        )
        assert np.array_equal(resumed.u_end, base.u_end)
        assert resumed.residuals == base.residuals

    def test_grid_resume_byte_identical(self, linear_problem, u0, tmp_path):
        """Checkpoint/resume on the 2x2 grid (s=0 column contributes)."""
        base = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2, p_space=2
        )
        path = tmp_path / "grid.ckpt"
        plan = FaultPlan(crashes=(RankCrash(rank=2, after_ops=40),))
        with pytest.raises(RankFailure):
            run_pfasst(
                _config(), _specs(linear_problem), u0, p_time=2, p_space=2,
                fault_plan=plan, checkpoint=path,
            )
        assert path.exists()
        resumed = run_pfasst(
            _config(), _specs(linear_problem), u0, p_time=2, p_space=2,
            resume_from=path,
        )
        assert np.array_equal(resumed.u_end, base.u_end)
        assert resumed.residuals == base.residuals

    def test_grid_resume_keeps_f0(self, tmp_path):
        """A mid-block checkpoint on the 2x2x1 smoke vortex problem, whose
        RHS is a space-row collective: the resumed tail sends exactly the
        messages the uninterrupted run sends for it, so no level
        re-evaluates an ``f0`` the checkpoint held.

        One block, killed in iteration 2 of 3, so the last checkpoint is
        the one after iteration 1: the tail is iteration 2 (the
        3-iteration run minus the 2-iteration run) plus what every run
        sends outside the iterations (a resume from the end of the
        2-iteration block)."""
        u0, specs = _smoke_problem(96)

        def run(iterations, **kw):
            cfg = PfasstConfig(t0=0.0, t_end=0.05, n_steps=2,
                               iterations=iterations)
            res = run_pfasst(cfg, specs, u0, p_time=2, p_space=2, **kw)
            return res, res.metrics["counters"]["mpi.messages"]

        full, m3 = run(3)
        crash = FaultPlan(crashes=(RankCrash(rank=0, after_ops=150),))
        with pytest.raises(RankFailure):
            run(3, checkpoint=tmp_path / "k1.ckpt", fault_plan=crash)
        _, m2 = run(2, checkpoint=tmp_path / "end.ckpt")
        _, outside = run(2, resume_from=tmp_path / "end.ckpt")
        resumed, tail = run(3, resume_from=tmp_path / "k1.ckpt")
        assert RunCheckpoint.load(tmp_path / "k1.ckpt").k == 1
        assert tail == (m3 - m2) + outside
        assert np.array_equal(resumed.u_end, full.u_end)
        assert resumed.residuals == full.residuals


class TestResumeValidation:
    def _checkpoint(self, problem, u0, path, **kw):
        run_pfasst(_config(**kw), _specs(problem), u0, p_time=2,
                   checkpoint=path)

    def test_p_time_mismatch_rejected(self, linear_problem, u0, tmp_path):
        path = tmp_path / "run.ckpt"
        self._checkpoint(linear_problem, u0, path)
        with pytest.raises(ValueError, match="p_time"):
            run_pfasst(_config(), _specs(linear_problem), u0, p_time=4,
                       resume_from=path)

    def test_config_digest_mismatch_rejected(
        self, linear_problem, u0, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        self._checkpoint(linear_problem, u0, path)
        with pytest.raises(ValueError, match="digest"):
            run_pfasst(
                _config(iterations=9), _specs(linear_problem), u0,
                p_time=2, resume_from=path,
            )

    def test_p_nodes_mismatch_rejected_by_name(
        self, linear_problem, u0, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        run_pfasst(_config(), _specs(linear_problem), u0, p_time=2,
                   p_nodes=2, checkpoint=path)
        with pytest.raises(
            ValueError,
            match=r"different \(config, p_time, p_space, p_nodes\)",
        ):
            run_pfasst(_config(), _specs(linear_problem), u0, p_time=2,
                       p_nodes=1, resume_from=path)

    def test_certify_with_resume_not_implemented(
        self, linear_problem, u0, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        self._checkpoint(linear_problem, u0, path)
        with pytest.raises(NotImplementedError, match="certif"):
            run_pfasst(_config(), _specs(linear_problem), u0, p_time=2,
                       resume_from=path, certify=True)


class TestCorruption:
    def _checkpoint(self, problem, u0, path):
        run_pfasst(_config(), _specs(problem), u0, p_time=2,
                   checkpoint=path)

    def test_truncated_file_reports_corruption(
        self, linear_problem, u0, tmp_path
    ):
        path = tmp_path / "run.ckpt"
        self._checkpoint(linear_problem, u0, path)
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(CheckpointCorruptionError, match="truncated"):
            RunCheckpoint.load(path)

    def test_bit_flip_fails_crc(self, linear_problem, u0, tmp_path):
        path = tmp_path / "run.ckpt"
        self._checkpoint(linear_problem, u0, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptionError, match="CRC"):
            RunCheckpoint.load(path)

    def test_wrong_magic_reports_corruption(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointCorruptionError, match="container"):
            RunCheckpoint.load(path)

    def test_no_temp_files_left_behind(self, linear_problem, u0, tmp_path):
        path = tmp_path / "run.ckpt"
        self._checkpoint(linear_problem, u0, path)
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []
