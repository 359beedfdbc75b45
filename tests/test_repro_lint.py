"""Tests for the repro-lint static analyser (rules RPR001-RPR007)."""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    HOT_MODULES,
    RULES,
    Violation,
    lint_paths,
    lint_source,
    main,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def codes(violations):
    return [v.code for v in violations]


# ---------------------------------------------------------------------------
# fixture snippets: each rule fires on its positive example and is silenced
# by a per-line suppression comment
# ---------------------------------------------------------------------------
class TestRPR001UnseededRNG:
    def test_legacy_module_api(self):
        src = "import numpy as np\nx = np.random.rand(10)\n"
        vs = lint_source(src, "pkg/mod.py")
        assert codes(vs) == ["RPR001"]
        assert "legacy global-state RNG" in vs[0].message

    def test_legacy_seed_call(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR001"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        vs = lint_source(src, "pkg/mod.py")
        assert codes(vs) == ["RPR001"]
        assert "seed" in vs[0].message

    def test_default_rng_none_seed(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR001"]

    def test_seeded_default_rng_clean(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(12345)\n"
            "rng2 = np.random.default_rng(seed=7)\n"
            "rng3 = np.random.default_rng(some_seed)\n"
        )
        assert lint_source(src, "pkg/mod.py") == []

    def test_suppressed(self):
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)"
            "  # repro-lint: disable=RPR001 -- fixture noise only\n"
        )
        assert lint_source(src, "pkg/mod.py") == []


class TestRPR002Nondeterminism:
    def test_wallclock_outside_timing_modules(self):
        src = "import time\nt0 = time.perf_counter()\n"
        vs = lint_source(src, "pkg/mod.py")
        assert codes(vs) == ["RPR002"]
        assert "wall-clock" in vs[0].message

    def test_bare_import_from_time(self):
        src = "from time import perf_counter\nt0 = perf_counter()\n"
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR002"]

    def test_wallclock_allowed_in_timing_modules(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert lint_source(src, "repro/obs/timing.py") == []
        assert lint_source(src, "repro/parallel/simmpi.py") == []

    def test_iteration_over_set_call(self):
        src = "for x in set(values):\n    f(x)\n"
        vs = lint_source(src, "pkg/mod.py")
        assert codes(vs) == ["RPR002"]
        assert "sorted" in vs[0].message

    def test_iteration_over_set_literal(self):
        src = "for x in {1.0, 2.0}:\n    f(x)\n"
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR002"]

    def test_comprehension_over_set(self):
        src = "ys = [f(x) for x in set(values)]\n"
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR002"]

    def test_sum_over_set(self):
        src = "total = sum(set(values))\n"
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR002"]

    def test_sorted_set_is_clean(self):
        src = "for x in sorted(set(values)):\n    f(x)\n"
        assert lint_source(src, "pkg/mod.py") == []

    def test_suppressed(self):
        src = (
            "import time\n"
            "t0 = time.time()  # repro-lint: disable=RPR002 -- log stamp\n"
        )
        assert lint_source(src, "pkg/mod.py") == []


class TestRPR003HotLoops:
    HOT = "repro/tree/engine.py"

    def test_range_over_shape0(self):
        src = "for i in range(pos.shape[0]):\n    f(i)\n"
        vs = lint_source(src, self.HOT)
        assert codes(vs) == ["RPR003"]

    def test_range_over_len(self):
        src = "for i in range(len(targets)):\n    f(i)\n"
        assert codes(lint_source(src, self.HOT)) == ["RPR003"]

    def test_range_over_n_particles(self):
        src = "for i in range(n_particles):\n    f(i)\n"
        assert codes(lint_source(src, self.HOT)) == ["RPR003"]

    def test_direct_iteration_over_particles(self):
        src = "for p in particles:\n    f(p)\n"
        assert codes(lint_source(src, self.HOT)) == ["RPR003"]

    def test_chunk_loop_is_clean(self):
        src = "for lo, hi in chunk_ranges(n, chunk):\n    f(lo, hi)\n"
        assert lint_source(src, self.HOT) == []

    def test_small_fixed_loop_is_clean(self):
        src = "for c in range(3):\n    f(c)\n"
        assert lint_source(src, self.HOT) == []

    def test_not_hot_module_is_clean(self):
        src = "for i in range(n_particles):\n    f(i)\n"
        assert lint_source(src, "repro/vortex/diagnostics.py") == []

    def test_suppressed(self):
        src = (
            "for i in range(n_particles):"
            "  # repro-lint: disable=RPR003 -- reference impl\n"
            "    f(i)\n"
        )
        assert lint_source(src, self.HOT) == []


class TestRPR004DtypeDrift:
    HOT = "repro/vortex/rhs.py"

    def test_allocation_without_dtype(self):
        src = "import numpy as np\nbuf = np.zeros((n, 3))\n"
        vs = lint_source(src, self.HOT)
        assert codes(vs) == ["RPR004"]
        assert "dtype" in vs[0].message

    def test_allocation_with_keyword_dtype_clean(self):
        src = "import numpy as np\nbuf = np.zeros((n, 3), dtype=np.float64)\n"
        assert lint_source(src, self.HOT) == []

    def test_allocation_with_positional_dtype_clean(self):
        src = "import numpy as np\nidx = np.empty(0, np.int64)\n"
        assert lint_source(src, self.HOT) == []

    def test_float32_attribute(self):
        src = "import numpy as np\nx = arr.astype(np.float32)\n"
        vs = lint_source(src, self.HOT)
        assert codes(vs) == ["RPR004"]
        assert "float32" in vs[0].message

    def test_float32_dtype_string(self):
        src = "import numpy as np\nx = np.zeros(3, dtype='float32')\n"
        assert codes(lint_source(src, self.HOT)) == ["RPR004"]

    def test_not_hot_module_is_clean(self):
        src = "import numpy as np\nbuf = np.zeros((n, 3))\n"
        assert lint_source(src, "repro/pfasst/theory.py") == []

    def test_suppressed(self):
        src = (
            "import numpy as np\n"
            "buf = np.zeros(3)"
            "  # repro-lint: disable=RPR004 -- plot scratch\n"
        )
        assert lint_source(src, self.HOT) == []


class TestRPR005AssertInLibrary:
    def test_assert_flagged(self):
        src = "def f(x):\n    assert x.shape == (3,)\n    return x\n"
        vs = lint_source(src, "pkg/mod.py")
        assert codes(vs) == ["RPR005"]
        assert "check_array" in vs[0].message

    def test_explicit_raise_clean(self):
        src = (
            "def f(x):\n"
            "    if x.shape != (3,):\n"
            "        raise ValueError('bad shape')\n"
            "    return x\n"
        )
        assert lint_source(src, "pkg/mod.py") == []

    def test_suppressed(self):
        src = (
            "def f(x):\n"
            "    assert x > 0"
            "  # repro-lint: disable=RPR005 -- perf-critical debug check\n"
        )
        assert lint_source(src, "pkg/mod.py") == []


class TestRPR006ComputeTask:
    def test_lambda_argument_flagged(self):
        src = (
            "from repro.parallel.executor import ComputeTask\n"
            "t = ComputeTask('p', 'rhs', args=(lambda u: u,))\n"
        )
        vs = lint_source(src, "pkg/mod.py")
        assert codes(vs) == ["RPR006"]
        assert "lambda" in vs[0].message

    def test_lambda_in_positional_args_flagged(self):
        src = (
            "from repro.parallel import executor\n"
            "t = executor.ComputeTask('p', 'rhs', (lambda: 1,), (), ())\n"
        )
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR006"]

    def test_computed_method_flagged(self):
        src = (
            "from repro.parallel.executor import ComputeTask\n"
            "def f(name):\n"
            "    return ComputeTask('p', name, args=(1.0,))\n"
        )
        vs = lint_source(src, "pkg/mod.py")
        assert codes(vs) == ["RPR006"]
        assert "string literal" in vs[0].message

    def test_method_keyword_flagged(self):
        src = (
            "from repro.parallel.executor import ComputeTask\n"
            "m = str('rhs')\n"
            "t = ComputeTask(payload='p', method=m)\n"
        )
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR006"]

    def test_literal_method_and_plain_args_clean(self):
        src = (
            "from repro.parallel.executor import ComputeTask\n"
            "t = ComputeTask('p', 'rhs', args=(1.0,), arrays=(u,))\n"
        )
        assert lint_source(src, "pkg/mod.py") == []

    def test_other_call_with_lambda_clean(self):
        src = "x = sorted(items, key=lambda i: i.name)\n"
        assert lint_source(src, "pkg/mod.py") == []

    def test_suppressed(self):
        src = (
            "from repro.parallel.executor import ComputeTask\n"
            "t = ComputeTask('p', m)"
            "  # repro-lint: disable=RPR006 -- worker-side reconstruction\n"
        )
        assert lint_source(src, "pkg/mod.py") == []


# ---------------------------------------------------------------------------
# machinery
# ---------------------------------------------------------------------------
class TestMachinery:
    def test_suppression_is_per_code(self):
        """Disabling one code must not swallow a different one."""
        src = (
            "import numpy as np\n"
            "x = np.random.rand(3)"
            "  # repro-lint: disable=RPR005 -- wrong code\n"
        )
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR001"]

    def test_multi_code_suppression(self):
        src = (
            "import time\nimport numpy as np\n"
            "x = np.random.rand(int(time.time()))"
            "  # repro-lint: disable=RPR001,RPR002 -- demo\n"
        )
        assert lint_source(src, "pkg/mod.py") == []

    def test_violation_render(self):
        v = Violation("a.py", 3, 7, "RPR001", "msg")
        assert v.render() == "a.py:3:7: RPR001 msg"

    def test_every_rule_has_catalogue_entry(self):
        assert sorted(RULES) == [f"RPR00{i}" for i in range(1, 8)]

    def test_hot_modules_exist_in_repo(self):
        for sfx in HOT_MODULES:
            assert (REPO_SRC / "repro" / sfx).exists(), sfx

    def test_lint_paths_over_files(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.seed(1)\n")
        ok = tmp_path / "ok.py"
        ok.write_text("x = 1\n")
        vs = lint_paths([str(tmp_path)])
        assert codes(vs) == ["RPR001"]
        assert vs[0].path == str(bad)


class TestCLI:
    def test_exit_zero_on_clean(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        assert main([str(f)]) == 0

    def test_exit_one_on_violations(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("import numpy as np\nnp.random.seed(1)\n")
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_parse_error_exit_two(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        assert main([str(f)]) == 2


def test_repository_lints_clean():
    """Acceptance: ``repro-lint src/`` exits 0 on this repository."""
    violations = lint_paths([str(REPO_SRC)])
    assert violations == [], "\n".join(v.render() for v in violations)


class TestRPR007RawTagLiterals:
    def test_send_with_tuple_literal(self):
        src = (
            "def prog(comm, rank):\n"
            "    yield comm.send(rank + 1, ('pred', 0), 1.0)\n"
        )
        vs = lint_source(src, "src/repro/pfasst/mod.py")
        assert codes(vs) == ["RPR007"]
        assert "registry" in vs[0].message

    def test_recv_with_string_literal(self):
        src = "def prog(comm, rank):\n    x = yield comm.recv(0, 'raw')\n"
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR007"]

    def test_collective_tag_keyword(self):
        src = (
            "def prog(comm):\n"
            "    yield from allreduce(comm, 1.0, tag=('ftsync', 0, 1))\n"
        )
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR007"]

    def test_collective_tag_positional(self):
        src = (
            "def prog(comm):\n"
            "    v = yield from bcast(comm, 1.0, 0, ('blockend', 0))\n"
        )
        assert codes(lint_source(src, "pkg/mod.py")) == ["RPR007"]

    def test_registry_constant_clean(self):
        src = (
            "from repro.parallel import tags\n"
            "def prog(comm, rank):\n"
            "    yield comm.send(rank + 1, (tags.PRED, 0, 0, 1), 1.0)\n"
        )
        assert lint_source(src, "pkg/mod.py") == []

    def test_generator_send_not_a_comm_site(self):
        src = "def f(gen):\n    gen.send('value')\n"
        assert lint_source(src, "pkg/mod.py") == []

    def test_variable_tag_clean(self):
        src = "def prog(comm, tag):\n    x = yield comm.recv(0, tag)\n"
        assert lint_source(src, "pkg/mod.py") == []

    def test_registry_module_exempt(self):
        src = "PRED = register('pred', 'pfasst', 3)\n"
        assert lint_source(src, "src/repro/parallel/tags.py") == []

    def test_suppressible(self):
        src = (
            "def prog(comm):\n"
            "    x = yield comm.recv(0, 'raw')"
            "  # repro-lint: disable=RPR007 -- test fixture\n"
        )
        assert lint_source(src, "pkg/mod.py") == []
