"""Tests for the ``repro-trace`` CLI (repro.obs.cli) and its forwarding
entry point ``python -m repro trace``."""

import json

import pytest

from repro.obs import MetricsRegistry, Tracer, save_trace
from repro.obs.cli import main as trace_main
from repro.obs.gantt import span_family


def _sample_tracer() -> Tracer:
    """A tiny hand-built two-rank schedule."""
    tracer = Tracer(meta={"sample": "cli"})
    tracer.vspan("predict:0", 0.0, 1.0, track="rank0", cat="phase")
    tracer.vspan("predict:0", 1.0, 2.0, track="rank1", cat="phase")
    tracer.vspan("sweep:L0:k0", 1.0, 3.0, track="rank0", cat="phase")
    tracer.vspan("sweep:L0:k0", 2.0, 4.0, track="rank1", cat="phase")
    tracer.vspan("wait:recv", 0.0, 1.0, track="rank1", cat="comm")
    tracer.instant("send", t=1.0, track="rank0", cat="comm",
                   args={"dest": 1})
    return tracer


@pytest.fixture
def trace_file(tmp_path):
    metrics = MetricsRegistry()
    metrics.counter("mpi.messages").inc(1)
    metrics.histogram("h").observe(2.0)
    return save_trace(_sample_tracer(), tmp_path / "trace.json",
                      metrics=metrics)


class TestSpanFamily:
    @pytest.mark.parametrize("name,family", [
        ("sweep:L0:k2", "sweep:L0"),
        ("predict:3", "predict"),
        ("wait:recv", "wait:recv"),
        ("tree_build", "tree_build"),
        ("restrict:L0:k1", "restrict:L0"),
    ])
    def test_counter_tails_are_stripped(self, name, family):
        assert span_family(name) == family


class TestSummarize:
    def test_reports_tracks_families_and_metrics(self, trace_file, capsys):
        assert trace_main(["summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "spans: 5 (5 virtual, 0 wall)" in out
        assert "virtual makespan: 4s" in out
        assert "sample=cli" in out
        assert "rank0" in out and "rank1" in out
        assert "sweep:L0" in out
        assert "mpi.messages" in out

    def test_summarize_rejects_chrome_json(self, tmp_path, capsys):
        bad = tmp_path / "chrome.json"
        bad.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(ValueError, match="not a repro-trace file"):
            trace_main(["summarize", str(bad)])


class TestExport:
    def test_chrome(self, trace_file, tmp_path, capsys):
        out = tmp_path / "out.chrome.json"
        assert trace_main(["export", str(trace_file), "-o", str(out),
                           "--format", "chrome"]) == 0
        loaded = json.loads(out.read_text())
        assert any(ev.get("ph") == "X" for ev in loaded["traceEvents"])

    def test_csv(self, trace_file, tmp_path):
        out = tmp_path / "spans.csv"
        assert trace_main(["export", str(trace_file), "-o", str(out),
                           "--format", "csv"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("track,name,")
        assert len(lines) == 6  # header + 5 spans

    def test_metrics_formats(self, trace_file, tmp_path):
        as_json = tmp_path / "m.json"
        as_csv = tmp_path / "m.csv"
        assert trace_main(["export", str(trace_file), "-o", str(as_json),
                           "--format", "metrics-json"]) == 0
        assert json.loads(as_json.read_text())["counters"][
            "mpi.messages"] == 1
        assert trace_main(["export", str(trace_file), "-o", str(as_csv),
                           "--format", "metrics-csv"]) == 0
        assert "counter,mpi.messages,value,1" in as_csv.read_text()


class TestGantt:
    def test_ascii_rows_per_rank(self, trace_file, capsys):
        assert trace_main(["gantt", str(trace_file), "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "rank0 |" in out and "rank1 |" in out
        assert "F = sweep:L0" in out  # legend

    def test_svg_output(self, trace_file, tmp_path, capsys):
        svg = tmp_path / "sched.svg"
        assert trace_main(["gantt", str(trace_file), "--svg", str(svg),
                           "--cats", "phase,comm"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "sweep:L0:k0" in text  # hover title survives


class TestDiff:
    def test_self_diff_is_flat(self, trace_file, capsys):
        assert trace_main(["diff", str(trace_file),
                           str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "virtual makespan" in out
        assert "+0.0%" in out
        assert "new" not in out.split()


class TestReproCliForwarding:
    def test_python_m_repro_trace_forwards(self, trace_file, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["trace", "summarize", str(trace_file)]) == 0
        assert "virtual makespan" in capsys.readouterr().out


class TestSvgEscaping:
    """Regression: span/track names with XML metacharacters used to be
    interpolated raw into the SVG, producing unparseable documents."""

    HOSTILE = 'sweep<script>&"x"</script>'

    def _hostile_tracer(self):
        tracer = Tracer()
        tracer.vspan(self.HOSTILE, 0.0, 1.0, track='rank<0>&"',
                     cat="phase")
        tracer.vspan("wait:recv", 0.5, 1.0, track='rank<0>&"',
                     cat="comm")
        return tracer

    def test_hostile_names_parse_as_xml(self):
        import xml.etree.ElementTree as ET

        from repro.obs.gantt import render_svg

        svg = render_svg(self._hostile_tracer().spans)
        root = ET.fromstring(svg)  # raises ParseError on raw < & "
        text = "".join(root.itertext())
        # the hostile names survive escaping verbatim
        assert self.HOSTILE in text
        assert 'rank<0>&"' in text

    def test_legend_families_escaped(self):
        import xml.etree.ElementTree as ET

        from repro.obs.gantt import render_svg, span_family

        svg = render_svg(self._hostile_tracer().spans)
        root = ET.fromstring(svg)
        fam = span_family(self.HOSTILE)
        assert fam in "".join(root.itertext())

    def test_escapes_only_markup_characters(self):
        """``&``, ``<`` and ``>`` are escaped; quotes in text stay as
        they are (the SVG bytes of a hostile name are pinned)."""
        from repro.obs.gantt import render_svg

        tracer = Tracer()
        tracer.vspan("a&<>\"'b:1", 0.0, 1.0, track="r&<>\"'0", cat="phase")
        svg = render_svg(tracer.spans)
        assert ">r&amp;&lt;&gt;\"'0</text>" in svg
        assert "<title>a&amp;&lt;&gt;\"'b:1 [0, 1]s</title>" in svg
        assert ">a&amp;&lt;&gt;\"'b</text>" in svg
