"""The Chrome trace_event export."""

from repro.obs.tracing import chrome_trace_events, virtual_runs


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


class TestVirtualRuns:
    @staticmethod
    def stream():
        return [
            {"type": "run", "run_seq": 1, "kind": "detect", "test": "w", "seed": 4,
             "crashed": True, "virtual_ms": 9.0},
            {"type": "inject", "run": 1, "action": "inject", "site": "l1",
             "t_ms": 2.0, "len_ms": 3.0, "tid": 2},
            {"type": "inject", "run": 1, "action": "skip", "site": "l1",
             "t_ms": 5.0, "reason": "decay"},
        ]

    def test_delays_and_lanes_join_within_their_process(self):
        lanes = {pid: [{"tid": 1, "name": "main-%d" % pid, "start": 0.0, "end": 9.0}]
                 for pid in (10, 11)}
        dossiers = [(pid, {"workload": "w", "schedule": {"sim_seed": 4},
                           "swimlane": {"threads": lanes[pid]}}) for pid in (11, 10)]
        runs = virtual_runs([(10, self.stream()), (11, self.stream())], dossiers)
        assert [run["vt_threads"] for run in runs] == [lanes[10], lanes[11]]
        assert runs[0]["vt_delays"] == [{"site": "l1", "tid": 2, "start": 2.0, "end": 5.0}]

    def test_an_older_run_record_keeps_its_own_lists(self):
        old = dict(self.stream()[0], vt_threads=[], vt_delays=[])
        assert virtual_runs([(10, [old])]) == [old]
