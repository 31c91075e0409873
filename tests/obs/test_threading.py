"""One recorder shared by pool threads: ``obs.install`` binds per thread."""

from concurrent.futures import ThreadPoolExecutor

from repro import obs


class TestInstallInThread:
    def test_pool_workers_record_into_shared_recorder(self):
        """The metric classes lock their own state, so concurrent
        workers that each install the same recorder lose no update."""
        recorder = obs.Recorder()

        def work(n):
            obs.install(recorder)
            try:
                obs.counter("pool.items")
                obs.observe("pool.payload", n)
                return n
            finally:
                obs.install(None)

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(100)))

        assert sorted(results) == list(range(100))
        assert recorder.registry.get("pool.items").value == 100
        hist = recorder.registry.get("pool.payload")
        assert hist.count == 100
        assert hist.total == sum(range(100))

    def test_spans_nest_per_thread(self):
        recorder = obs.Recorder(trace=True)

        def work(n):
            obs.install(recorder)
            try:
                with obs.trace("pool.task", n=n):
                    pass
            finally:
                obs.install(None)
            return n

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(20)))
        events = [
            e for e in recorder.trace_events(include_metrics=False)
            if e["name"] == "pool.task"
        ]
        assert len(events) == 20
        # every task span is a root on its own thread (no cross-thread
        # parenting corruption)
        assert all(e["parent"] is None for e in events)
