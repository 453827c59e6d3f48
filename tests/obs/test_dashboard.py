"""Dashboard rendering and the byte-identity (golden) contract.

The dashboard must be a *reproducible artifact*: the same campaign
rendered under ``--jobs 1`` vs ``--jobs 2`` yields a byte-identical
file, and a chaos-interrupted campaign's quality joins equal a clean
run's, so only its fault census section differs.
"""

import os

import pytest

from repro import obs
from repro.harness import faults
from repro.harness.cli import main
from repro.obs import eventbus
from repro.obs.dashboard import render_dashboard
from repro.obs.quality import build_quality
from repro.obs.report import load_obs_dir

HEADINGS = (
    "Detection funnel",
    "Sensitivity curves",
    "Delay-budget attribution",
    "Generated workloads",
    "Fault &amp; chaos census",
)


@pytest.fixture(autouse=True)
def clean_state():
    yield
    obs.disable()
    os.environ.pop(obs.OBS_DIR_ENV, None)


def run_campaign(directory, *extra):
    rc = main(["fuzz", "--seed-range", "0:6", "--no-replay",
               "--obs-dir", str(directory), "--dashboard", *extra])
    assert rc == 0
    obs.disable()
    eventbus.disable()
    return directory


class TestRender:
    def test_every_heading_renders_with_no_data_at_all(self):
        html = render_dashboard()
        for heading in HEADINGS:
            assert "<h2>%s</h2>" % heading in html

    def test_self_contained_no_external_references(self):
        html = render_dashboard()
        for marker in ('<link rel="stylesheet"', "<script src=", "http://", "https://"):
            assert marker not in html

    def test_real_campaign_populates_curves_and_attribution(self, tmp_path):
        target = run_campaign(tmp_path / "camp")
        html = (target / "dashboard.html").read_text()
        for heading in HEADINGS:
            assert heading in html
        assert "detectable band" in html      # ground-truth band shading
        assert "<polyline" in html            # sensitivity polylines
        assert "ground-truth band" in html    # bands table
        assert "skip taxonomy" in html
        assert str(target) not in html        # no paths leak into the bytes

    def test_generated_workloads_render_the_report_fold(self, tmp_path):
        """One formatter: the section is the report's digest, verbatim."""
        from repro.obs.report import fuzz_lines

        target = run_campaign(tmp_path / "camp")
        html = (target / "dashboard.html").read_text()
        section = html.split("<h2>Generated workloads</h2>")[1].split("</pre>")[0] + "</pre>"
        lines = fuzz_lines(load_obs_dir(target).view)
        assert lines[0] == "generated workloads (fuzz)"
        assert section == "<pre>%s</pre>" % "\n".join(lines[1:])
        assert "  topology   workloads  planted" in section

    def test_fuzz_dashboard_writes_one_artifact(self, tmp_path, capsys):
        target = run_campaign(tmp_path / "camp")
        written = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("dashboard artifact written:")]
        assert written == ["dashboard artifact written: %s" % (target / "dashboard.html")]
        assert not (target / "metrics.prom").exists()
        assert not (target / "timeseries.jsonl").exists()


class TestGoldenDeterminism:
    def test_jobs_fanout_is_byte_identical(self, tmp_path):
        one = run_campaign(tmp_path / "jobs1", "--jobs", "1")
        two = run_campaign(tmp_path / "jobs2", "--jobs", "2")
        assert (one / "dashboard.html").read_bytes() == (two / "dashboard.html").read_bytes()

    def test_chaos_campaign_matches_clean_outside_the_census(self, tmp_path):
        clean = run_campaign(tmp_path / "clean", "--jobs", "2")
        faults.configure("seed=3,worker_crash=0.4")  # as WAFFLE_CHAOS would
        try:
            chaos = run_campaign(tmp_path / "chaos", "--jobs", "2")
        finally:
            faults.disable()
        assert build_quality(load_obs_dir(clean)) == build_quality(load_obs_dir(chaos))

        def sections(directory):
            head, *parts = (directory / "dashboard.html").read_text().split("<h2>")
            return head, {part.split("</h2>")[0]: part for part in parts}

        (clean_head, clean_sections), (chaos_head, chaos_sections) = sections(clean), sections(chaos)
        assert clean_head == chaos_head  # title and summary tiles
        assert sorted(clean_sections) == sorted(chaos_sections) == sorted(HEADINGS)
        census = "Fault &amp; chaos census"
        assert clean_sections[census] != chaos_sections[census]  # chaos did fire
        for heading in HEADINGS:
            if heading != census:
                assert clean_sections[heading] == chaos_sections[heading], heading
