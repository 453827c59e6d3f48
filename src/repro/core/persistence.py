"""On-disk persistence of analysis results and decay state.

Section 5: the candidate set S, the interference set I and the
per-location delay lengths "are saved after analyzing the execution
traces recorded during the preparation run and used to bootstrap future
detection runs"; likewise "after each detection run, the new delay
probabilities are saved on disk and used to bootstrap the next
detection run." The in-process drivers thread these objects through
runs directly; this module provides the equivalent file round-trip for
CLI workflows and for tests that assert the bootstrap is lossless.

:func:`save_record` also writes the harness's crash dossiers and the
obs bug dossiers, as a temp file renamed into place. No record is
forced to stable storage: a reader treats one a host crash tore as
unreadable, like any other damaged file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Tuple, Union

from .analyzer import InjectionPlan
from .delay_policy import DecayState
from .reports import BugReport

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def save_plan(plan: InjectionPlan, path: PathLike) -> None:
    payload = {"version": FORMAT_VERSION, "plan": plan.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_plan(path: PathLike) -> InjectionPlan:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return InjectionPlan.from_dict(payload["plan"])


def save_decay(decay: DecayState, path: PathLike) -> None:
    payload = {"version": FORMAT_VERSION, "decay": decay.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_decay(path: PathLike) -> DecayState:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return DecayState.from_dict(payload["decay"])


def save_session(plan: InjectionPlan, decay: DecayState, path: PathLike) -> None:
    """Persist a full detection session bootstrap in one file."""
    payload = {
        "version": FORMAT_VERSION,
        "plan": plan.to_dict(),
        "decay": decay.to_dict(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_session(path: PathLike) -> Tuple[InjectionPlan, DecayState]:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return (
        InjectionPlan.from_dict(payload["plan"]),
        DecayState.from_dict(payload["decay"]),
    )


def save_report(report: BugReport, path: PathLike) -> None:
    """Persist a bug report (the dossier/detect-record shared schema)."""
    save_record({"report": report.to_dict()}, path)


def load_report(path: PathLike) -> BugReport:
    return BugReport.from_dict(load_record(path)["report"])


def save_record(payload: dict, path: PathLike) -> None:
    """Persist an arbitrary JSON-safe record with the format version.

    Backs :func:`save_report` and the crash and bug dossiers: the
    record is written to a temp file in the *same directory* as the
    target (so the ``os.replace`` is a same-filesystem rename -- a
    cross-device rename would raise EXDEV and, on network filesystems,
    forfeit atomicity) and renamed into place, so a concurrent reader
    never observes a torn file.
    """
    target = Path(path)
    body = json.dumps({"version": FORMAT_VERSION, "record": payload}, sort_keys=True)
    tmp = target.with_name(target.name + ".tmp.%d" % os.getpid())
    tmp.write_text(body)
    os.replace(tmp, target)


def load_record(path: PathLike) -> dict:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return payload["record"]


def _check_version(payload: dict) -> None:
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            "unsupported persistence format version %r (expected %d)"
            % (version, FORMAT_VERSION)
        )
