"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "bounds", "--serve-metrics", "0"],
            ["experiment", "bounds", "--flight-recorder", "f"],
            ["experiment", "bounds", "--flight-interval-ms", "5"],
            ["sql", "SELECT COUNT(*) FROM supplier S", "--explain"],
        ],
        ids=lambda argv: argv[2],
    )
    def test_removed_observability_flags_are_gone(self, argv, capsys):
        """Telemetry leaves the process as files and the exit table only,
        and ``repro explain`` is the one way to print a plan."""
        from repro import obs

        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err
        for name in (
            "MetricsServer", "FlightRecorder",
            "render_prometheus", "prometheus_name",
        ):
            assert not hasattr(obs, name)


class TestSqlCommand:
    def test_query_executes(self, capsys):
        code = main(
            [
                "sql",
                "SELECT COUNT(*) FROM supplier S",
                "--scale", "0.002",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "20" in out  # 20 suppliers at SF 0.002
        assert "simulated cost" in out

    def test_explain(self, capsys):
        """The plan of the query ``sql`` would run is ``repro explain``'s
        to print: here a join with no aggregate and no projection."""
        code = main(
            [
                "explain",
                "SELECT * FROM partsupp PS, supplier S "
                "WHERE PS.suppkey = S.suppkey",
                "--scale", "0.002",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SeqScan(partsupp" in out
        assert "IndexNestedLoopJoin(supplier" in out
        assert "Aggregate(" not in out

    def test_sql_error_reported(self, capsys):
        code = main(["sql", "SELECT FROM nothing", "--scale", "0.002"])
        err = capsys.readouterr().err
        assert code == 1
        assert "SQL error" in err

    def test_max_rows_truncation(self, capsys):
        code = main(
            [
                "sql",
                "SELECT PS.partkey FROM partsupp PS",
                "--scale", "0.002",
                "--max-rows", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "more rows" in out


class TestExplainCommand:
    QUERY = (
        "SELECT MIN(PS.supplycost) FROM partsupp PS, supplier S "
        "WHERE PS.suppkey = S.suppkey"
    )

    def test_plain_explain_prints_plan(self, capsys):
        code = main(["explain", self.QUERY, "--scale", "0.002"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SeqScan(partsupp" in out
        assert "EXPLAIN ANALYZE" not in out

    def test_analyze_prints_profile_tree(self, capsys):
        code = main(["explain", self.QUERY, "--scale", "0.002", "--analyze"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("EXPLAIN ANALYZE")
        assert "SeqScan(partsupp AS PS)" in out
        assert "IndexNestedLoopJoin(supplier" in out
        assert "Aggregate(MIN" in out
        assert "rows=" in out and "sim=" in out and "wall=" in out
        assert out.strip().splitlines()[-1].startswith("total: sim=")

    def test_sql_error_reported(self, capsys):
        code = main(["explain", "SELECT FROM nothing", "--scale", "0.002"])
        assert code == 1
        assert "SQL error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["sql"], ["explain"], ["explain", "--analyze"]],
    ids=" ".join,
)
def test_unknown_column_is_an_sql_error(argv, capsys):
    """A query naming a column no table has is refused like one that does
    not parse: one line on stderr, exit 1, no plan and no traceback."""
    code = main([
        argv[0], "SELECT COUNT(*) FROM supplier S WHERE S.nope = 1",
        "--scale", "0.002", *argv[1:],
    ])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("SQL error: ") and "S.nope" in err


class TestProfileFlag:
    def test_profile_writes_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "profiles.jsonl"
        code = main(
            [
                "--profile", str(path),
                "explain",
                "SELECT COUNT(*) FROM supplier S",
                "--scale", "0.002",
                "--analyze",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"wrote 1 query profiles to {path}" in captured.err
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        profile = json.loads(lines[0])
        assert profile["query"] == "supplier → COUNT"
        assert profile["rows"] == 1
        assert profile["sim_ms"] > 0
        assert profile["root"]["op"] == "query"
        kinds = {child["op"] for child in profile["root"]["children"]}
        assert "aggregate" in kinds

    def test_profile_restores_previous_sink(self, tmp_path):
        from repro.obs import events

        assert not events.wanted("profile")
        main(
            [
                "--profile", str(tmp_path / "p.jsonl"),
                "explain",
                "SELECT COUNT(*) FROM supplier S",
                "--scale", "0.002",
            ]
        )
        assert not events.wanted("profile")

    def test_unwritable_profile_destination_fails_fast(self, tmp_path, capsys):
        code = main(
            [
                "--profile", str(tmp_path / "missing-dir" / "p.jsonl"),
                "explain",
                "SELECT COUNT(*) FROM supplier S",
                "--scale", "0.002",
            ]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestWhyCommand:
    def test_sample_run_renders_trail(self, capsys):
        code = main(["why", "--policy", "online", "--horizon", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("decision trail: ")
        assert "ONLINE" in out
        assert "backlog" in out and "rationale:" in out
        # A simulated flush costs its prediction: nothing hangs under it.
        assert "decision(s)" in out and "flushed" not in out

    def test_step_filter(self, capsys):
        code = main(["why", "--policy", "naive", "--horizon", "10",
                     "--step", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "t=3" in out
        assert "t=4" not in out

    def test_reads_decision_log_jsonl(self, tmp_path, capsys):
        log_path = tmp_path / "decisions.jsonl"
        code = main(
            ["--decision-log", str(log_path),
             "why", "--policy", "naive", "--horizon", "8"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["why", "--log", str(log_path), "--step", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decision trail: 1 decision(s)" in out
        assert "NAIVE" in out

    def test_live_round_trip_hangs_each_flush_under_its_decision(
        self, tmp_path, capsys
    ):
        import json

        log_path = tmp_path / "live.jsonl"
        code = main(
            ["--decision-log", str(log_path),
             "control-log", "--horizon", "20", "--scale", "0.002"]
        )
        assert code == 0
        capsys.readouterr()
        logged = [json.loads(line) for line in log_path.read_text().splitlines()]
        samples = [e for e in logged if e["kind"] == "calibration"]
        assert samples, "the live run flushed nothing"
        step = samples[0]["t"]
        flushed = [s for s in samples if s["t"] == step]
        code = main(
            ["why", "--log", str(log_path), "--view", "paper_view",
             "--step", str(step)]
        )
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "decision trail: 1 decision(s)"
        assert out[1].startswith(f"t={step} ONLINE [ivm] view=paper_view: flush")
        tail = out[-len(flushed):]
        for line, sample in zip(tail, flushed):
            residual = sample["actual_ms"] - sample["predicted_ms"]
            assert line.endswith(
                f"flushed {sample['alias']} k={sample['k']}: "
                f"actual {sample['actual_ms']:.3f} ms / "
                f"predicted {sample['predicted_ms']:.3f} / "
                f"residual {residual:+.3f}"
            )
        assert tail[-1].startswith("└─ ")

    def test_reads_a_log_with_the_joined_decision_fields(
        self, tmp_path, capsys
    ):
        """Decision logs once carried no ``kind`` and a joined
        ``actual_ms``, ``actual_table_ms`` and ``charges``; they still
        render, as the decision alone."""
        log_path = tmp_path / "old-decisions.jsonl"
        log_path.write_text(
            '{"t": 3, "policy": "NAIVE", "source": "ivm", "view": "v", '
            '"backlog": [2], "backlog_ms": [3.0], "chosen": [2], '
            '"chosen_ms": [3.0], "predicted_ms": 3.0, "limit": 2.5, '
            '"rationale": "flush everything", "candidates": [], '
            '"actual_ms": 3.25, "actual_table_ms": {"PS": 3.25}, '
            '"charges": {"startups": 1}}\n'
        )
        code = main(["why", "--log", str(log_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "decision trail: 1 decision(s)",
            "t=3 NAIVE [ivm] view=v: flush (2,)",
            "├─ backlog (2,) f_i(s)=(3.000) ms",
            "├─ constraint C=2.500 ms",
            "└─ rationale: flush everything",
        ]

    def test_rejects_non_decision_log_file(self, tmp_path, capsys):
        bad = tmp_path / "not-decisions.jsonl"
        bad.write_text('{"unrelated": true}\n')
        code = main(["why", "--log", str(bad)])
        assert code == 2
        assert "not a decision-log JSONL" in capsys.readouterr().err

    def test_missing_log_file_fails(self, tmp_path, capsys):
        code = main(["why", "--log", str(tmp_path / "nope.jsonl")])
        assert code == 2


class TestDecisionLogFlag:
    def test_streams_decision_events_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "decisions.jsonl"
        code = main(
            ["--decision-log", str(path),
             "why", "--policy", "online", "--horizon", "12"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert (
            f"wrote 12 decision events and 0 calibration samples to {path}"
            in captured.err
        )
        lines = path.read_text().splitlines()
        assert len(lines) == 12  # one per non-forced step
        events = [json.loads(line) for line in lines]
        assert {e["kind"] for e in events} == {"decision"}
        assert {e["policy"] for e in events} <= {"ONLINE", "OPT_LGM"}
        # Written once, as emitted: no field is filled in afterwards.
        assert not any("actual_ms" in e for e in events)

    def test_writes_joined_events_jsonl(self, tmp_path, capsys):
        """A live run's file joins by step: every flush's calibration
        line carries the (view, t) of the decision that chose it."""
        import json

        path = tmp_path / "live.jsonl"
        code = main(
            ["--decision-log", str(path),
             "control-log", "--horizon", "20", "--scale", "0.002"]
        )
        assert code == 0
        logged = [json.loads(line) for line in path.read_text().splitlines()]
        decided = {
            (e["view"], e["t"]): e for e in logged if e["kind"] == "decision"
        }
        samples = [e for e in logged if e["kind"] == "calibration"]
        assert len(decided) == 20 and samples
        for sample in samples:
            decision = decided[sample["view"], sample["t"]]
            i = ("PS", "S").index(sample["alias"])  # the paper view's tables
            assert decision["chosen"][i] == sample["k"] > 0
            assert decision["chosen_ms"][i] == pytest.approx(
                sample["predicted_ms"]
            )

    def test_a_long_run_keeps_every_decision(self, tmp_path, capsys):
        """Streamed, not buffered: more decisions than a ring holds."""
        from repro.obs import events

        path = tmp_path / "decisions.jsonl"
        code = main(
            ["--decision-log", str(path),
             "why", "--horizon", "5000", "--scale", "0.002"]
        )
        captured = capsys.readouterr()
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 5000 > events.CAPACITY["decision"]
        assert "wrote 5000 decision events" in captured.err
        assert "dropped" not in captured.err
        assert captured.out.startswith("decision trail: 5000 decision(s)")

    def test_restores_previous_log(self, tmp_path):
        from repro.obs import events

        assert not events.wanted("decision")
        main(
            ["--decision-log", str(tmp_path / "d.jsonl"),
             "why", "--policy", "naive", "--horizon", "5"]
        )
        assert not events.wanted("decision")

    def test_unwritable_destination_fails_fast(self, tmp_path, capsys):
        code = main(
            ["--decision-log", str(tmp_path / "missing" / "d.jsonl"),
             "why", "--policy", "naive", "--horizon", "5"]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestControlLogCommand:
    def test_sample_run_renders_trail(self, capsys):
        code = main(["control-log", "--horizon", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("control log: ")
        # The pressure workload trips the policy governor at t=15.
        assert "event(s)" in out
        assert "t=15 view=paper_view: policy 'online' -> 'naive'" in out
        assert "reason:" in out and "signals:" in out

    def test_reads_control_log_jsonl(self, tmp_path, capsys):
        log_path = tmp_path / "control.jsonl"
        code = main(
            ["--control-log", str(log_path), "control-log", "--horizon", "40"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["control-log", "--log", str(log_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("control log: ")
        assert "event(s)" in out

    def test_reads_a_log_with_the_retired_event_fields(self, tmp_path, capsys):
        """Control logs once carried ``governor``, ``setting`` and
        ``applied`` on every line; they still render."""
        log_path = tmp_path / "old-control.jsonl"
        log_path.write_text(
            '{"t": 15, "governor": "policy", "setting": "policy", '
            '"old": "online", "new": "naive", "reason": "slo pressure", '
            '"signals": {"pressure_events": 3.0}, "applied": true, '
            '"view": "paper_view"}\n'
        )
        code = main(["control-log", "--log", str(log_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "control log: 1 event(s)",
            "t=15 view=paper_view: policy 'online' -> 'naive'",
            "├─ reason: slo pressure",
            "└─ signals: pressure_events=3.000",
        ]

    def test_rejects_non_control_log_file(self, tmp_path, capsys):
        bad = tmp_path / "not-control.jsonl"
        bad.write_text('{"unrelated": true}\n')
        code = main(["control-log", "--log", str(bad)])
        assert code == 2
        assert "not a control-log JSONL" in capsys.readouterr().err

    def test_missing_log_file_fails(self, tmp_path, capsys):
        code = main(["control-log", "--log", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestMalformedLog:
    @pytest.mark.parametrize(
        "command, flag", [("why", "decision-log"), ("control-log", "control-log")]
    )
    def test_a_line_that_is_not_an_object_is_refused(
        self, tmp_path, capsys, command, flag
    ):
        bad = tmp_path / "list.jsonl"
        bad.write_text("[1, 2]\n")
        code = main([command, "--log", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"is not a {flag} JSONL file" in err

    def test_a_decision_log_is_not_a_control_log(self, tmp_path, capsys):
        path = tmp_path / "decisions.jsonl"
        main(["--decision-log", str(path), "why", "--horizon", "3"])
        capsys.readouterr()
        assert main(["control-log", "--log", str(path)]) == 2
        assert "not a control-log JSONL" in capsys.readouterr().err


class TestControlLogFlag:
    def test_writes_events_jsonl(self, tmp_path, capsys):
        import json

        path = tmp_path / "control.jsonl"
        code = main(
            ["--control-log", str(path), "control-log", "--horizon", "40"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"control events to {path}" in captured.err
        events = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert events
        for event in events:
            assert set(event) == {
                "kind", "t", "old", "new", "reason", "signals", "view"
            }
            assert event["kind"] == "actuation"

    def test_all_three_event_flags_in_one_run(self, tmp_path, capsys):
        import json

        paths = {
            flag: tmp_path / f"{flag}.jsonl"
            for flag in ("profile", "decision-log", "control-log")
        }
        argv = [x for flag, path in paths.items() for x in (f"--{flag}", str(path))]
        code = main([*argv, "control-log", "--horizon", "40", "--scale", "0.002"])
        err = capsys.readouterr().err
        assert code == 0
        logged = {
            flag: [json.loads(line) for line in path.read_text().splitlines()]
            for flag, path in paths.items()
        }
        kinds = {
            flag: [e["kind"] for e in lines] for flag, lines in logged.items()
        }
        decided = kinds["decision-log"].count("decision")
        sampled = kinds["decision-log"].count("calibration")
        assert decided == 40  # one per step of the sample run
        assert sampled >= 1 and decided + sampled == len(kinds["decision-log"])
        assert set(kinds["control-log"]) == {"actuation"}
        assert set(kinds["profile"]) == {"profile"}
        assert f"wrote {len(kinds['profile'])} query profiles" in err
        assert (
            f"wrote 40 decision events and {sampled} calibration samples "
            f"to {paths['decision-log']}" in err
        )
        first = logged["decision-log"][0]
        assert first["view"] == "paper_view" and "actual_ms" not in first

    def test_restores_previous_log(self, tmp_path):
        from repro.obs import events

        assert not events.wanted("actuation")
        main(
            ["--control-log", str(tmp_path / "c.jsonl"),
             "control-log", "--horizon", "20"]
        )
        assert not events.wanted("actuation")

    def test_unwritable_destination_fails_fast(self, tmp_path, capsys):
        code = main(
            ["--control-log", str(tmp_path / "missing" / "c.jsonl"),
             "control-log", "--horizon", "20"]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestControlAblationCommand:
    def test_prints_ranked_report(self, capsys):
        code = main(["control-ablation", "--horizon", "60"])
        out = capsys.readouterr().out
        assert code == 0
        for variant in ("baseline", "full"):
            assert variant in out
        assert "Policy governor" in out
        assert "breaches" in out


class TestGenerateCommand:
    def test_writes_tbl_files(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--scale", "0.002",
                "--tables", "region", "nation",
                "--out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "region.tbl").exists()
        assert "nation.tbl: 25 rows" in out

    def test_unknown_table_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["generate", "--tables", "bogus", "--out", str(tmp_path)])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'bogus'" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestCalibrateCommand:
    def test_prints_fits(self, capsys):
        code = main(
            ["calibrate", "--scale", "0.002", "--batches", "5", "10", "20"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "f_PS(k) samples" in out
        assert "f_S(k) samples" in out
        assert "fit:" in out


class TestTimelineCommand:
    def test_renders_timelines_and_comparison(self, capsys):
        code = main(
            [
                "timeline",
                "--scale", "0.002",
                "--horizon", "40",
                "--policies", "naive", "online",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "=== NAIVE ===" in out
        assert "=== ONLINE ===" in out
        assert "flush[" in out
        assert "vs best" in out
        # SLO summary rides along with every timeline run.
        assert "SLO: refresh-deadline margin" in out
        assert "breaches" in out

    def test_adapt_and_optimal_variants(self, capsys):
        code = main(
            [
                "timeline",
                "--scale", "0.002",
                "--horizon", "30",
                "--policies", "optimal", "adapt",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OPT_LGM" in out and "ADAPT" in out


class TestObservedFailure:
    """--trace must leave its evidence behind even when the run dies."""

    def test_failing_command_still_flushes_trace_and_metrics(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.cli as cli
        from repro.obs.tracing import read_jsonl

        def exploding_handler(args):
            from repro import obs

            obs.counter("doomed.work", 3)
            raise RuntimeError("midway failure")

        monkeypatch.setattr(cli, "_run_experiment", exploding_handler)
        trace_file = tmp_path / "crash.trace.jsonl"
        with pytest.raises(RuntimeError, match="midway failure"):
            main(["--trace", str(trace_file), "experiment", "bounds"])

        captured = capsys.readouterr()
        # The metrics table and the trace file were still written: the
        # table on stdout, the status line on stderr with the other [obs]
        # lines, so a redirected table carries no status text.
        assert "doomed.work" in captured.out
        assert "[obs]" not in captured.out
        assert "[obs] wrote" in captured.err
        assert f"trace events to {trace_file}" in captured.err
        events = read_jsonl(trace_file)
        span = next(e for e in events if e["name"] == "cli.command")
        assert span["args"]["error"] == "RuntimeError"

    def test_unwritable_destination_fails_fast(self, tmp_path, capsys):
        code = main(
            ["--trace", str(tmp_path / "no" / "such" / "dir.jsonl"),
             "experiment", "bounds"]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestExperimentCommand:
    def test_bounds_experiment(self, capsys):
        code = main(["experiment", "bounds"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Bounds study" in out

    def test_fig1_experiment_small_scale(self, capsys):
        code = main(["experiment", "fig1", "--scale", "0.002"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 1" in out

    def test_ablations_honours_scale(self, monkeypatch, capsys):
        """``--scale`` reaches every ablation driver that takes it, and
        the replanning study is one of the tables (nothing runs: the
        drivers are replaced by recorders of their keyword arguments)."""
        from types import SimpleNamespace

        from repro import experiments

        scaled = (
            "run_astar_heuristic_ablation",
            "run_plan_class_ablation",
            "run_estimator_ablation",
            "run_replanning_study",
        )
        calls: dict[str, dict] = {}

        def recording(name):
            def run(**kwargs):
                calls[name] = kwargs
                return SimpleNamespace(format=lambda: name)

            return run

        for name in (*scaled, "run_cost_family_study"):
            monkeypatch.setattr(experiments, name, recording(name))
        assert main(["experiment", "ablations", "--scale", "0.002"]) == 0
        assert calls.pop("run_cost_family_study") == {}
        assert calls == {name: {"scale": 0.002} for name in scaled}
        assert capsys.readouterr().out.split()[-1] == "run_replanning_study"

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "fig1", "--scale", "0"],
            ["sql", "SELECT COUNT(*) FROM region R", "--scale", "-1"],
            ["why", "--horizon", "-3"],
            ["calibrate", "--batches", "0"],
            ["calibrate", "--batches", "5"],  # one size: nothing to fit
        ],
        ids=["scale-zero", "scale-negative", "horizon", "batches-zero", "batches-one"],
    )
    def test_nonpositive_arguments_are_usage_errors(self, argv, capsys):
        """Out-of-range numbers exit 2 with a message naming the flag,
        not with a traceback from the library check they would reach."""
        try:
            code = main(argv)
        except SystemExit as refused:
            code = refused.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert next(a for a in argv if a.startswith("--")) in captured.err
