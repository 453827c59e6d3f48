"""Campaign benchmark: end-to-end campaign cost and where its time goes.

Usage::

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The unit of work is one campaign,
invoked the way a user invokes it: a fresh ``python -m repro ...``
interpreter on the checkout's ``src``. Workloads (closed loop, one
campaign at a time; every campaign is a pure function of the seed):

* ``table4``   -- the paper's Table 4 on the 11 bundled apps: Waffle and
  WaffleBasic, 5 attempts x budget 8 on all 18 bugs. Simulator, hook,
  near-miss tracking and analysis dominate.
* ``fuzz``     -- oracle-verified sweep of generated workloads 0:50
  with dossier replay. Same layers, on synthetic topologies.
* ``fleet``    -- the same sweep through ``campaign run``, the
  coordinator as sole executor: leases, the shared artifact store and
  the merge. (A spawned worker would split the cells differently from
  run to run, and the two processes would share two noisy CPUs.)
* ``observed`` -- the same sweep with full recording on (telemetry,
  campaign events, flight recorder): the obs layer's cost.

The seed is the detector's ``--seed``; it drives every injection and
jitter RNG, so each seed gives other schedules over the same sources.
Generated workloads stay fixed at 0:50 because their costs differ
several-fold from one spec to the next, which would swamp the spread
between runs.

Every campaign's output is checked: Waffle exposes every Table 4 bug;
every generated workload meets its planted-bug oracle; every campaign
repeats its first output byte for byte; and fleet and observed sweeps
match the plain sweep's digest.

Times are in reference seconds (see ``REFERENCE_CALIBRATION_S``).
``--trace 0`` prints the end-to-end metrics: median campaign time,
median peak RSS of the campaign process, and set-up time (median of five
cold starts of the CLI). ``--trace 1`` runs all but the first two
campaigns under cProfile
and prints per-layer self time (see ``layers.py``), counts, the raw wall
time of the unprofiled campaigns and instrumented operations per second.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
WORK = ROOT / ".campaignbench_work"
PROFILED = HERE / "profiled.py"
CALIBRATION = HERE / "calibration.py"

WORKLOADS = ("table4", "fuzz", "fleet", "observed")
FUZZ_RANGE = (0, 50)
SETUP_REPEATS = 5
MIN_CAMPAIGNS = 3
#: Unprofiled campaigns a traced run times before profiling, for ops/s.
TRACE_UNPROFILED = 2
CAMPAIGN_TIMEOUT_S = 120.0
#: Times are reported in reference seconds. On a shared virtual machine
#: the speed of a process can drift by tens of percent, at times by more
#: than 1.5x, over seconds to minutes as other tenants come and go,
#: which swamps the differences the benchmark must resolve. So a fixed reference job (``calibration.py``) runs between
#: timed processes, and each wall time is scaled by this reference
#: duration over the reference job's time around it: a campaign that
#: took 4x as long as the reference job reads 4 x 0.25 s.
REFERENCE_CALIBRATION_S = 0.25

_CACHE_LINE = re.compile(r"^cache: .*, (\d+) writes", re.M)
_FLEET_LINE = re.compile(r"^fleet: .*\(coordination ([\d.]+)s /", re.M)
_MERGE_LINE = re.compile(r"^fleet merge: (\d+) cell\(s\)", re.M)


class CampaignError(Exception):
    """A campaign exited non-zero or produced a wrong result."""


@dataclass
class Campaign:
    """One finished process."""

    wall_s: float
    rss_mb: float
    stdout: str
    rc: int
    workdir: Path


def _env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WAFFLE_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _calibrate() -> float:
    """Wall time of one run of the fixed reference job."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(CALIBRATION)], env=_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=CAMPAIGN_TIMEOUT_S)
    return time.perf_counter() - started


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _invoke(argv: List[str], workdir: Path, extra_env: Optional[Dict[str, str]] = None) -> Campaign:
    """Run one process to completion in its own session; return its wall
    time and the resource usage of that process alone (``wait4``)."""
    workdir.mkdir(parents=True, exist_ok=True)
    env = _env()
    env.update(extra_env or {})
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=str(workdir), env=env, stdout=out, stderr=err,
                                start_new_session=True)
        # A campaign that overruns is killed with everything it spawned.
        timer = threading.Timer(CAMPAIGN_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing the campaign started may outlive it
    return Campaign(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        rc=proc.returncode,
        workdir=workdir,
    )


def _repro(args: List[str], profile: Optional[Path] = None) -> List[str]:
    if profile is None:
        return [sys.executable, "-m", "repro"] + args
    return [sys.executable, str(PROFILED), str(profile)] + args


def _fuzz_args(seed: int) -> List[str]:
    return ["fuzz", "--seed-range", "%d:%d" % FUZZ_RANGE, "--seed", str(seed), "--json"]


def _campaign_argv(workload: str, seed: int, profile: Optional[Path]) -> List[str]:
    if workload == "table4":
        return _repro(["table4", "--attempts", "5", "--budget", "8", "--seed", str(seed),
                       "--json"], profile)
    if workload == "fleet":
        return _repro(["campaign", "run", "--fleet-dir", "fleet", "--workers", "0", "--"]
                      + _fuzz_args(seed), profile)
    if workload == "observed":
        return _repro(["--obs-dir", "obs"] + _fuzz_args(seed), profile)
    return _repro(_fuzz_args(seed), profile)


def _payload(stdout: str) -> dict:
    start = stdout.find("{\n")
    if start < 0:
        raise CampaignError("no JSON result in the campaign output")
    payload, _ = json.JSONDecoder().raw_decode(stdout, start)
    return payload


def _check(workload: str, campaign: Campaign) -> dict:
    """Validate one campaign's result; return its JSON payload."""
    if campaign.rc != 0:
        raise CampaignError("campaign exited %d" % campaign.rc)
    payload = _payload(campaign.stdout)
    if workload == "table4":
        rows = payload["table4"]
        ids = [row["bug"]["bug_id"] for row in rows]
        if ids != ["Bug-%d" % i for i in range(1, 19)]:
            raise CampaignError("table4 rows cover %r" % ids)
        missed = [row["bug"]["bug_id"] for row in rows if row["waffle_runs"] is None]
        if missed:
            raise CampaignError("Waffle missed %s" % ", ".join(missed))
        return payload
    rows = payload["fuzz"]["rows"]
    if [row["seed"] for row in rows] != list(range(*FUZZ_RANGE)):
        raise CampaignError("fuzz rows do not cover generator seeds %d:%d" % FUZZ_RANGE)
    failing = [row["seed"] for row in rows if not row["ok"]]
    if failing:
        raise CampaignError("oracle violations on generator seeds %s" % failing)
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(canonical.encode()).hexdigest() != payload["fuzz"]["digest"]:
        raise CampaignError("fuzz digest does not match its rows")
    if workload == "fleet":
        merged = _MERGE_LINE.search(campaign.stdout)
        if merged is None or int(merged.group(1)) != len(rows):
            raise CampaignError("fleet merged journal does not hold one entry per cell")
    if workload == "observed":
        obs_dir = campaign.workdir / "obs"
        for pattern in ("telemetry-*.jsonl", "events-*.jsonl", "dossier-*.json"):
            if not any(p.stat().st_size for p in obs_dir.glob(pattern)):
                raise CampaignError("observed campaign wrote no %s" % pattern)
    return payload


def _counts(workload: str, campaign: Campaign) -> Dict[str, float]:
    counts = {"store_writes": 0.0, "fleet_coordination_s": 0.0, "obs_bytes": 0.0,
              "events": 0.0}
    cache = _CACHE_LINE.search(campaign.stdout)
    if cache:
        counts["store_writes"] = float(cache.group(1))
    fleet = _FLEET_LINE.search(campaign.stdout)
    if fleet:
        counts["fleet_coordination_s"] = float(fleet.group(1))
    record_dir = {"fleet": "fleet", "observed": "obs"}.get(workload)
    if record_dir:
        directory = campaign.workdir / record_dir
        if workload == "observed":
            counts["obs_bytes"] = float(sum(p.stat().st_size for p in directory.rglob("*")
                                            if p.is_file()))
        counts["events"] = float(sum(
            p.read_bytes().count(b"\n") for p in directory.glob("events-*.jsonl")
        ))
    return counts


class _Clock:
    """Times processes in reference seconds: each wall time is scaled by
    ``REFERENCE_CALIBRATION_S`` over the mean of the reference-job runs
    just before and just after it."""

    def __init__(self) -> None:
        self.last = _calibrate()

    def time(self, argv: List[str], workdir: Path,
             extra_env: Optional[Dict[str, str]] = None) -> Tuple[Campaign, float]:
        before = self.last
        campaign = _invoke(argv, workdir, extra_env)
        self.last = _calibrate()
        return campaign, campaign.wall_s * 2 * REFERENCE_CALIBRATION_S / (before + self.last)


def _setup(work: Path, clock: _Clock) -> float:
    """Median cold start of the CLI: a fresh interpreter imports the
    package, builds the app and bug registries and lists the bugs."""
    times = []
    for index in range(SETUP_REPEATS):
        campaign, seconds = clock.time(_repro(["bugs"]), work / ("setup-%d" % index))
        if campaign.rc != 0 or "Bug-18" not in campaign.stdout:
            raise CampaignError("the CLI failed to start (rc %d)" % campaign.rc)
        times.append(seconds)
    return statistics.median(times)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    # Byte-compile once, untimed: an install pays this one time only.
    compileall.compile_dir(str(PACKAGE), quiet=1)
    clock = _Clock()
    setup_s = _setup(work, clock)

    reference = None
    if workload in ("fleet", "observed"):
        # The executor and recording must not change the result.
        reference = _check("fuzz", _invoke(_campaign_argv("fuzz", seed, None),
                                           work / "reference"))["fuzz"]["digest"]

    attempted = failed = 0
    first = None
    times: List[float] = []
    walls: List[float] = []
    rss: List[float] = []
    profiles: List[Dict[str, float]] = []
    errors: List[str] = []
    extra_env = {"WAFFLE_FLIGHTREC": "1"} if workload == "observed" else None
    deadline = time.perf_counter() + seconds
    minimum = MIN_CAMPAIGNS + (TRACE_UNPROFILED if trace else 0)
    while attempted < minimum or time.perf_counter() < deadline:
        workdir = work / ("campaign-%d" % attempted)
        profile = workdir / "campaign.prof" if trace and attempted >= TRACE_UNPROFILED else None
        attempted += 1
        campaign, elapsed = clock.time(_campaign_argv(workload, seed, profile), workdir, extra_env)
        try:
            payload = _check(workload, campaign)
            canonical = json.dumps(payload, sort_keys=True)
            if first is None:
                first = canonical
            elif canonical != first:
                raise CampaignError("campaign output differs from the first run's")
            if reference is not None and payload["fuzz"]["digest"] != reference:
                raise CampaignError("digest differs from the plain fuzz sweep's")
        except (CampaignError, KeyError, TypeError, ValueError) as exc:
            failed += 1
            errors.append("campaign %d: %s" % (attempted, exc))
        else:
            if profile is None:
                times.append(elapsed)
                walls.append(campaign.wall_s)
                rss.append(campaign.rss_mb)
            else:
                layer_s, ops = layers.fold(str(profile), str(PACKAGE))
                sample = {"%s_self_s" % name: value for name, value in layer_s.items()}
                sample["instrumented_ops"] = float(ops)
                sample.update(_counts(workload, campaign))
                profiles.append(sample)
        shutil.rmtree(workdir, ignore_errors=True)

    for error in errors:
        print(error, file=sys.stderr)
    out: Dict[str, dict] = {}
    if trace and profiles and times:
        for name in profiles[0]:
            out[name] = {"value": statistics.median(p[name] for p in profiles),
                         "unit": _UNITS.get(name, "s")}
        out["campaign_wall_s"] = {"value": statistics.median(walls), "unit": "s"}
        out["ops_per_s"] = {"value": out["instrumented_ops"]["value"] / statistics.median(times),
                            "unit": "1/s"}
    elif not trace and times:
        out["campaign_s"] = {"value": statistics.median(times), "unit": "s"}
        out["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MiB"}
        out["setup_s"] = {"value": setup_s, "unit": "s"}
    return {
        "correct": failed == 0 and bool(out),
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


_UNITS = {"instrumented_ops": "count", "store_writes": "count", "obs_bytes": "bytes",
          "events": "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__main__.py").is_file():
        print("campaignbench: no program sources at %s" % PACKAGE, file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    work = WORK / ("%s-%d" % (args.workload, os.getpid()))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (CampaignError, KeyError, TypeError, ValueError, OSError,
            subprocess.SubprocessError) as exc:
        print("campaignbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
