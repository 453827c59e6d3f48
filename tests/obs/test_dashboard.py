"""Dashboard rendering and the byte-identity (golden) contract.

The dashboard and the OpenMetrics export must be *reproducible
artifacts*: the same campaign rendered under ``--jobs 1`` vs ``--jobs
2`` and under the vector vs tree happens-before engines yields
byte-identical files, and a chaos-interrupted campaign's
``--deterministic`` metrics export matches a clean run's exactly.
"""

import os

import pytest

from repro import obs
from repro.harness.cli import main
from repro.obs import eventbus
from repro.obs.dashboard import render_dashboard
from repro.obs.openmetrics import validate_openmetrics

HEADINGS = (
    "Detection funnel",
    "Sensitivity curves",
    "Delay-budget attribution",
    "Observed near-miss gaps",
    "Generated workloads",
    "Fault &amp; chaos census",
    "Quality trend",
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

    def test_prom_and_timeseries_written_beside_html(self, tmp_path):
        target = run_campaign(tmp_path / "camp")
        prom = (target / "metrics.prom").read_text()
        assert validate_openmetrics(prom) == []
        assert (target / "timeseries.jsonl").exists()


class TestGoldenDeterminism:
    def test_jobs_fanout_is_byte_identical(self, tmp_path):
        one = run_campaign(tmp_path / "jobs1", "--jobs", "1")
        two = run_campaign(tmp_path / "jobs2", "--jobs", "2")
        assert (one / "dashboard.html").read_bytes() == (two / "dashboard.html").read_bytes()
        assert (one / "metrics.prom").read_bytes() == (two / "metrics.prom").read_bytes()

    def test_chaos_deterministic_export_matches_clean(self, tmp_path, monkeypatch):
        clean = run_campaign(tmp_path / "clean", "--jobs", "2")
        monkeypatch.setenv("WAFFLE_CHAOS", "seed=3,worker_crash=0.4")
        chaos = run_campaign(tmp_path / "chaos", "--jobs", "2")
        monkeypatch.delenv("WAFFLE_CHAOS")
        for directory, out in ((clean, "clean.prom"), (chaos, "chaos.prom")):
            rc = main(["obs", "metrics", str(directory), "--deterministic",
                       "--metrics-out", str(tmp_path / out)])
            assert rc == 0
        assert (tmp_path / "clean.prom").read_bytes() == (tmp_path / "chaos.prom").read_bytes()
