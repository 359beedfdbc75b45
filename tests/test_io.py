"""Tests for checkpoint I/O."""

import numpy as np
import pytest

from repro.io import (
    CheckpointCorruptionError,
    atomic_write_bytes,
    load_particles,
    read_crc_container,
    save_particles,
    write_crc_container,
)
from repro.vortex import spherical_vortex_sheet
from repro.vortex.sheet import SheetConfig


class TestParticleCheckpoints:
    def test_roundtrip(self, tmp_path):
        ps = spherical_vortex_sheet(SheetConfig(n=100))
        path = save_particles(tmp_path / "state.npz", ps, time=2.5)
        ps2, time = load_particles(path)
        assert time == 2.5
        assert np.array_equal(ps2.positions, ps.positions)
        assert np.array_equal(ps2.vorticity, ps.vorticity)
        assert np.array_equal(ps2.volumes, ps.volumes)

    def test_suffix_appended(self, tmp_path):
        ps = spherical_vortex_sheet(SheetConfig(n=10))
        path = save_particles(tmp_path / "state", ps)
        assert path.suffix == ".npz"
        assert path.exists()

    def test_future_version_rejected(self, tmp_path):
        ps = spherical_vortex_sheet(SheetConfig(n=10))
        path = save_particles(tmp_path / "s.npz", ps)
        data = dict(np.load(path, allow_pickle=False))
        data["format_version"] = np.int64(99)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="format version"):
            load_particles(path)

    def test_loaded_system_usable(self, tmp_path):
        """A loaded checkpoint can continue an integration run."""
        from repro.sdc import SDCStepper
        from repro.vortex import DirectEvaluator, VortexProblem, get_kernel

        cfg = SheetConfig(n=60)
        ps = spherical_vortex_sheet(cfg)
        path = save_particles(tmp_path / "c.npz", ps, time=0.0)
        ps2, t0 = load_particles(path)
        prob = VortexProblem(
            ps2.volumes, DirectEvaluator(get_kernel("algebraic6"), cfg.sigma)
        )
        u = SDCStepper(prob, num_nodes=2, sweeps=2).run(ps2.state(), t0,
                                                        t0 + 0.5, 0.5)
        assert np.all(np.isfinite(u))


class TestDurability:
    """Atomic-write + CRC hardening of the particle checkpoints."""

    def _saved(self, tmp_path, n=20):
        ps = spherical_vortex_sheet(SheetConfig(n=n))
        return ps, save_particles(tmp_path / "state.npz", ps, time=1.5)

    def test_no_temp_files_left_behind(self, tmp_path):
        _, path = self._saved(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        ps, path = self._saved(tmp_path)
        save_particles(path, ps, time=9.0)  # replaces in place
        _, time = load_particles(path)
        assert time == 9.0
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("damage", ["empty", "40-bytes", "not-an-archive"])
    def test_truncated_archive_reports_corruption(self, tmp_path, damage):
        _, path = self._saved(tmp_path)
        path.write_bytes({
            "empty": b"",
            "40-bytes": path.read_bytes()[:40],
            "not-an-archive": b"positions,vorticity\n0.0,1.0\n",
        }[damage])
        with pytest.raises(CheckpointCorruptionError, match="truncated") as exc:
            load_particles(path)
        assert str(path) in str(exc.value)

    def test_crc_mismatch_reports_corruption(self, tmp_path):
        ps, path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["positions"] = arrays["positions"] + 1.0  # bytes change
        np.savez_compressed(path, **arrays)  # stale stored crc
        with pytest.raises(CheckpointCorruptionError, match="CRC"):
            load_particles(path)

    def test_v1_archive_without_crc_still_loads(self, tmp_path):
        """Back-compat: pre-hardening checkpoints carry no crc entry."""
        ps, path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files if k != "crc"}
        arrays["format_version"] = np.int64(1)
        np.savez_compressed(path, **arrays)
        ps2, time = load_particles(path)
        assert time == 1.5
        assert np.array_equal(ps2.positions, ps.positions)


    def test_v2_archive_with_metadata_still_loads(self, tmp_path):
        """Back-compat: version 2 wrote a JSON ``metadata`` entry."""
        ps, path = self._saved(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["format_version"] = np.int64(2)
        arrays["metadata"] = np.array('{"theta": 0.3}')
        np.savez_compressed(path, **arrays)
        ps2, time = load_particles(path)
        assert time == 1.5
        assert np.array_equal(ps2.vorticity, ps.vorticity)


class TestCrcContainer:
    MAGIC = b"TESTMAGIC1"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_crc_container(path, self.MAGIC, b"payload-bytes")
        assert read_crc_container(path, self.MAGIC) == b"payload-bytes"

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"TES")
        with pytest.raises(CheckpointCorruptionError, match="truncated"):
            read_crc_container(path, self.MAGIC)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_crc_container(path, b"OTHERMAGIC", b"payload")
        with pytest.raises(CheckpointCorruptionError, match="truncated"):
            read_crc_container(path, self.MAGIC)

    def test_flipped_payload_bit_rejected(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_crc_container(path, self.MAGIC, b"payload-bytes")
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptionError, match="CRC"):
            read_crc_container(path, self.MAGIC)

    def test_atomic_write_bytes_no_droppings(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"abc")
        assert target.read_bytes() == b"abc"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
