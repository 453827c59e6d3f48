"""Golden event-stream digests for every bundled application.

Each app's whole test suite is recorded with :class:`RecordingHook` at a
fixed seed, and every event's site, access type, object id, thread id,
``repr(timestamp)``, injected delay and vector-clock snapshot is hashed.
A second pass records with a hook that also injects delays (including
int, negative and zero results) so the injected-sleep path is pinned
too. The digests were computed before the simulator's per-operation
fast path was flattened; any change to RNG draw order, event order,
timestamps or clock captures shows up here as a digest mismatch.

Object ids come from a process-lifetime counter, so they are renumbered
in order of first appearance within each run.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.apps import all_apps
from repro.core.trace import RecordingHook
from repro.sim.api import Simulation

SEED = 7

#: Delays the injecting recorder cycles through, one per operation.
_DELAY_CYCLE = (0.0, 2.5, 0, 1, -1.0, 0.0, 0.75)


class _InjectingRecorder(RecordingHook):
    """RecordingHook that also injects a fixed, cyclic delay pattern."""

    def __init__(self) -> None:
        super().__init__()
        self._n = 0

    def before_access(self, pending) -> float:
        delay = _DELAY_CYCLE[self._n % len(_DELAY_CYCLE)]
        self._n += 1
        return delay


def _digest_run(hasher, test, hook) -> None:
    sim = Simulation(seed=SEED, hook=hook)
    result = sim.run(test.build(sim))
    oids: Dict[int, int] = {-1: -1}
    for event in hook.trace.events:
        oid = oids.setdefault(event.object_id, len(oids))
        vc = event.vc_snapshot
        line = "%s|%s|%d|%d|%r|%r|%s\n" % (
            event.location.site,
            event.access_type.value,
            oid,
            event.thread_id,
            event.timestamp,
            event.injected_delay,
            sorted(vc.items()) if vc is not None else None,
        )
        hasher.update(line.encode())
    failure = result.first_failure()
    hasher.update(
        ("end|%s|%r|%d|%d|%s\n" % (
            test.name,
            result.virtual_time,
            result.op_count,
            result.context_switches,
            type(failure).__name__ if failure is not None else "-",
        )).encode()
    )


def compute_digests() -> Dict[str, Dict[str, str]]:
    """``{app: {"recording": sha256, "injecting": sha256}}``."""
    digests: Dict[str, Dict[str, str]] = {}
    for name, app in sorted(all_apps().items()):
        entry = {}
        for label, make_hook in (("recording", RecordingHook), ("injecting", _InjectingRecorder)):
            hasher = hashlib.sha256()
            for test in app.tests:
                _digest_run(hasher, test, make_hook())
            entry[label] = hasher.hexdigest()[:32]
        digests[name] = entry
    return digests


GOLDEN: Dict[str, Dict[str, str]] = {
    "appinsights": {
        "recording": "f1d3b8c1f618cade71dfa858fde27f55",
        "injecting": "1831f984df731e5aba601e97c13bf383",
    },
    "fluentassertions": {
        "recording": "85eb8cb24379004b4c2130e6d9fb1998",
        "injecting": "7ab0e3c54e856f5754f29d9157e30613",
    },
    "kubernetesnet": {
        "recording": "c4be6db9cc37243420001d884f06ccfb",
        "injecting": "03a824326520a4265be83aecb3c8bdac",
    },
    "litedb": {
        "recording": "dce2a8dd91d112fe66a1ab2d1e988602",
        "injecting": "91bb6a341ead5e15c86e125f8a0442b0",
    },
    "mqttnet": {
        "recording": "65195967bb0adf47322225a28a3ee733",
        "injecting": "6b2e20ae79ddbae0bebe1384736f672a",
    },
    "netmq": {
        "recording": "244709a2dd8f12679721bd256f7764ed",
        "injecting": "fcf78a28573924c06b310756932de76e",
    },
    "npgsql": {
        "recording": "78836c6c0b63a28b3cde6033429c59f0",
        "injecting": "8cf7c6f7624b88d5bbfba0bf730ba791",
    },
    "nsubstitute": {
        "recording": "e0fadea376ed918af8dce25fc1a66e11",
        "injecting": "3477ac15c1411f7650471c9a2f961584",
    },
    "nswag": {
        "recording": "05ec028d5e8aa15c917da751a0788958",
        "injecting": "0454bca4e617ed9308fcdf8f85278fd5",
    },
    "signalr": {
        "recording": "8a5ffc3c96d2d0d6bf891fb0d5252c67",
        "injecting": "bcbc867be34b08f9743d73aa08880326",
    },
    "sshnet": {
        "recording": "19811978ff13db7499d0b57747b4f19e",
        "injecting": "ae82a4bf58830235e8a925c1f37f89c0",
    },
}


def test_event_streams_match_golden_digests():
    assert compute_digests() == GOLDEN


if __name__ == "__main__":
    import pprint

    pprint.pprint(compute_digests())
