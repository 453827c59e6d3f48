"""The Chrome trace_event export."""

from repro.obs.tracing import chrome_trace_events


class TestChromeTrace:
    def test_runs_become_processes_threads_and_delay_slices(self):
        runs = [
            {
                "kind": "detect",
                "run_seq": 1,
                "test": "t",
                "virtual_ms": 20.0,
                "vt_threads": [
                    {"tid": 1, "name": "main", "start": 0.0, "end": 20.0},
                    {"tid": 2, "name": "worker", "start": 1.0, "end": None},
                ],
                "vt_delays": [{"site": "l1", "tid": 2, "start": 5.0, "end": 9.0}],
            }
        ]
        trace = chrome_trace_events(runs)
        events = trace["traceEvents"]
        names = [e["name"] for e in events]
        assert "process_name" in names
        assert names.count("thread_name") == 2
        delay = next(e for e in events if e["name"] == "delay@l1")
        # Virtual ms -> microseconds.
        assert delay["ts"] == 5000.0
        assert delay["dur"] == 4000.0
        # A thread with no recorded end extends to the run's end.
        worker = next(e for e in events if e["name"] == "worker" and e["ph"] == "X")
        assert worker["dur"] == (20.0 - 1.0) * 1000.0

    def test_empty_runs(self):
        assert chrome_trace_events([]) == {"traceEvents": [], "displayTimeUnit": "ms"}
