"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.analysis.registry import EXPERIMENTS, build_study


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the on-disk cache at a throwaway directory for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestRegistryContents:
    def test_all_fifteen_experiments_registered(self):
        assert set(EXPERIMENTS.names()) == {
            "fig3", "table1", "fig4", "fig6", "sec5c",
            "fig7", "fig8", "fig9", "fig10", "table2",
            "topoyield", "topomcm", "tunedyield", "repairbudget",
            "appsweep",
        }

    def test_aliases_resolve(self):
        assert EXPERIMENTS.get("yield").name == "fig4"
        assert EXPERIMENTS.get("mcm").name == "fig8"
        assert EXPERIMENTS.get("apps").name == "fig10"
        assert EXPERIMENTS.get("topologies").name == "topoyield"
        assert EXPERIMENTS.get("repair").name == "tunedyield"
        assert EXPERIMENTS.get("budget").name == "repairbudget"
        assert EXPERIMENTS.get("appeval").name == "appsweep"

    def test_topology_awareness_flags(self):
        for name in ("fig4", "topoyield", "appsweep"):
            assert "topology" in EXPERIMENTS.get(name).options
        assert "topology" not in EXPERIMENTS.get("fig8").options

    def test_tuning_awareness_flags(self):
        for name in ("fig4", "tunedyield", "repairbudget"):
            assert "tuning" in EXPERIMENTS.get(name).options
        assert "tuning" not in EXPERIMENTS.get("fig8").options

    def test_compiler_awareness_flags(self):
        for name in ("fig10", "appsweep"):
            assert {"benchmarks", "routing"} <= set(EXPERIMENTS.get(name).options)
        assert "routing" not in EXPERIMENTS.get("fig4").options

    def test_unknown_experiment_suggestion(self):
        with pytest.raises(KeyError, match="did you mean 'fig9'"):
            EXPERIMENTS.get("fig99")

    def test_build_study_respects_seed_and_batch(self):
        study = build_study(seed=5, batch_size=123)
        assert study.config.seed == 5
        assert study.config.chiplet_batch_size == 123


class TestCLI:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table2" in out
        assert "topologies (for --topology):" in out
        assert "heavy-hex" in out and "square" in out and "ring" in out
        assert "repair strategies (for --tuning):" in out
        assert "greedy" in out and "anneal" in out
        assert "benchmarks (for --benchmarks):" in out
        assert "bv" in out and "hamiltonian" in out
        assert "routing strategies (for --routing):" in out
        assert "basic" in out and "noise-aware" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_table1(self, capsys):
        assert main(["run", "table1", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "yes" in out and "[engine]" in out

    def test_run_fig7_quiet(self, capsys):
        assert main(["run", "fig7", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "bin centre" not in out
        assert "[engine]" in out

    def test_run_fig4_seeded_runs_match_across_jobs(self, capsys):
        args = ["run", "fig4", "--seed", "7", "--batch", "120", "--no-cache"]
        assert main([*args, "--jobs", "1"]) == 0
        seq = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        par = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("[engine]")
        ]
        assert strip(seq) == strip(par)

    def test_run_fig4_caches_results(self, capsys):
        args = ["run", "fig4", "--seed", "3", "--batch", "100", "--jobs", "1", "--quiet"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "(0 cached" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "132 cached" in second

    def test_cache_info_and_clear(self, capsys):
        main(["run", "fig4", "--seed", "3", "--batch", "50", "--jobs", "1", "--quiet"])
        capsys.readouterr()
        assert main(["cache", "info"]) == 0
        assert "entries: 132" in capsys.readouterr().out
        assert main(["cache", "clear"]) == 0
        assert "removed 132" in capsys.readouterr().out

    def test_run_fig4_square_topology_matches_across_jobs(self, capsys):
        args = [
            "run", "fig4", "--topology", "square",
            "--seed", "7", "--batch", "100", "--no-cache",
        ]
        assert main([*args, "--jobs", "1"]) == 0
        seq = capsys.readouterr().out
        assert main([*args, "--jobs", "2"]) == 0
        par = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("[engine]")
        ]
        assert strip(seq) == strip(par)

    def test_run_square_differs_from_heavy_hex(self, capsys):
        args = ["run", "fig4", "--seed", "7", "--batch", "100", "--jobs", "1"]
        assert main(args) == 0
        heavy = capsys.readouterr().out
        assert main([*args, "--topology", "square"]) == 0
        square = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("[engine]")
        ]
        assert strip(heavy) != strip(square)

    def test_invalid_topology_rejected(self, capsys):
        assert main(["run", "fig4", "--topology", "kagome"]) == 2
        assert "unknown topology 'kagome'" in capsys.readouterr().err

    def test_topology_typo_gets_suggestion(self, capsys):
        assert main(["run", "fig4", "--topology", "sqare"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'square'" in err

    def test_unknown_experiment_gets_suggestion(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "did you mean 'fig9'" in err

    def test_topology_warning_for_unaware_experiment(self, capsys):
        assert main(["run", "table1", "--topology", "square", "--jobs", "1"]) == 0
        err = capsys.readouterr().err
        assert "experiment 'table1' does not read --topology;" in err

    def test_tuning_warning_for_unaware_experiment(self, capsys):
        assert main(["run", "table1", "--tuning", "greedy", "--jobs", "1"]) == 0
        err = capsys.readouterr().err
        assert "experiment 'table1' does not read --tuning;" in err

    def test_run_tunedyield_with_tuning_flags(self, capsys):
        args = [
            "run", "tunedyield", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--tuning", "greedy", "--max-shift-mhz", "100", "--repair-budget", "2",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "as-fab" in out and "repaired" in out

    @pytest.mark.parametrize("reach", ["nan", "inf", "-inf", "-5"])
    def test_non_finite_or_negative_reach_exits_2(self, reach, capsys):
        args = ["run", "tunedyield", "--batch", "20", f"--max-shift-mhz={reach}"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "invalid tuning options" in err and "max_shift_ghz" in err

    def test_nan_ci_target_exits_2(self, capsys):
        assert main(["run", "sec5c", "--ci-target", "nan"]) == 2
        err = capsys.readouterr().err
        assert "invalid statistics options" in err and "ci_target" in err

    def test_repair_budget_zero_is_noop_baseline(self, capsys):
        args = [
            "run", "fig4", "--batch", "80", "--jobs", "1", "--seed", "3", "--quiet",
        ]
        assert main([*args]) == 0
        untuned = capsys.readouterr().out
        assert main([*args, "--tuning", "greedy", "--repair-budget", "0"]) == 0
        tuned = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if not line.startswith("[engine]")
        ]
        assert strip(untuned) == strip(tuned)

    def test_dump_json_writes_result_with_cis(self, tmp_path, capsys):
        import json

        path = tmp_path / "fig4.json"
        args = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--quiet", "--dump-json", str(path),
        ]
        assert main(args) == 0
        assert "result written to" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "fig4"
        assert payload["seed"] == 7 and payload["batch_size"] == 60
        points = next(iter(payload["result"]["results"].values()))
        first = points[0]
        assert {"ci_low", "ci_high", "num_collision_free", "batch_size"} <= set(first)
        assert first["ci_low"] <= first["num_collision_free"] / first["batch_size"]
        assert first["ci_high"] >= first["num_collision_free"] / first["batch_size"]

    def test_dump_json_tuned_run_reports_repairs(self, tmp_path, capsys):
        import json

        path = tmp_path / "budget.json"
        args = [
            "run", "repairbudget", "--batch", "60", "--jobs", "1",
            "--quiet", "--dump-json", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        rows = payload["result"]["rows"]
        assert rows[0]["max_shift_mhz"] == 0.0 and rows[0]["num_repaired"] == 0
        assert any(row["num_repaired"] > 0 for row in rows)

    def test_unknown_benchmark_gets_suggestion(self, capsys):
        assert main(["run", "fig10", "--benchmarks", "qoaa"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'qoaa'" in err and "did you mean 'qaoa'" in err

    def test_empty_benchmark_list_rejected(self, capsys):
        assert main(["run", "fig10", "--benchmarks", ","]) == 2
        assert "at least one name" in capsys.readouterr().err

    def test_unknown_routing_gets_suggestion(self, capsys):
        assert main(["run", "fig10", "--routing", "noise-awre"]) == 2
        err = capsys.readouterr().err
        assert "unknown routing strategy 'noise-awre'" in err
        assert "did you mean 'noise-aware'" in err

    def test_compiler_flag_warning_for_unaware_experiment(self, capsys):
        args = ["run", "table1", "--routing", "basic", "--benchmarks", "bv", "--jobs", "1"]
        assert main(args) == 0
        err = capsys.readouterr().err
        # One warning names every ignored option, in table order.
        assert err.count("warning") == 1
        assert "does not read --benchmarks, --routing;" in err

    def test_run_appsweep_with_compiler_flags(self, capsys):
        args = [
            "run", "appsweep", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--benchmarks", "ghz", "--routing", "noise-aware",
            "--topology", "ring",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "noise-aware" in out and "ghz" in out and "ring" in out
        # The filtered sweep compiles only the requested axes.
        assert "qaoa" not in out and "heavy-hex" not in out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out


class TestCLIBackends:
    """``--jobs`` is the only execution setting; the dump reports it."""

    @pytest.mark.parametrize("command", ["run fig4", "serve"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"must be at least 1, got {int(jobs)}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--queue-size", "--max-attempts"])
    def test_serve_counts_below_one_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", flag, "0"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param(
                "--batch", "-5", "batch_size must be an integer of at least 1, got -5",
                id="--batch--5-must be at least 1, got -5",
            ),
            pytest.param(
                "--batch", "0", "batch_size must be an integer of at least 1, got 0",
                id="--batch-0-must be at least 1, got 0",
            ),
            pytest.param(
                "--batch", "abc", "invalid int value: 'abc'",
                id="--batch-abc-not an integer: 'abc'",
            ),
            pytest.param(
                "--seed", "-1", "seed must be an integer of at least 0, got -1",
                id="--seed--1-must be at least 0, got -1",
            ),
            pytest.param(
                "--seed", "1.5", "invalid int value: '1.5'",
                id="--seed-1.5-not an integer: '1.5'",
            ),
        ],
    )
    def test_bad_batch_or_seed_rejected(self, flag, value, message, capsys):
        # Lexical errors are argparse's (SystemExit); range errors come
        # from the options table and exit 2 like the service's HTTP 400.
        try:
            code = main(["run", "fig6", flag, value])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", [pytest.param("2", id="processes")])
    def test_run_fig4_backend_matches_sequential(self, jobs, tmp_path, capsys):
        """``--jobs 2`` runs fig4 on the process pool, bit-identical to ``--jobs 1``."""
        import json

        args = ["run", "fig4", "--seed", "7", "--batch", "100", "--no-cache"]
        (tmp_path / "seq").mkdir()
        (tmp_path / "par").mkdir()
        # One file name in two directories: the "[dump]" lines compare equal.
        seq_dump, par_dump = tmp_path / "seq" / "fig4.json", tmp_path / "par" / "fig4.json"
        assert main([*args, "--jobs", "1", "--dump-json", str(seq_dump)]) == 0
        seq = capsys.readouterr().out
        assert main([*args, "--jobs", jobs, "--dump-json", str(par_dump)]) == 0
        par = capsys.readouterr().out
        strip = lambda text: [
            line.replace(str(tmp_path / "seq"), "").replace(str(tmp_path / "par"), "")
            for line in text.splitlines()
            if not line.startswith("[engine]")
        ]
        assert strip(seq) == strip(par)
        assert json.loads(seq_dump.read_text())["engine"]["workers_used"] == 1
        assert json.loads(par_dump.read_text())["engine"]["workers_used"] == int(jobs)

    def test_list_has_no_backend_block(self, capsys):
        assert main(["list"]) == 0
        assert "backend" not in capsys.readouterr().out

    def test_dump_json_cache_traffic_matches_across_jobs(
        self, tmp_path, capsys, monkeypatch
    ):
        """Cache traffic counted in pool workers reaches the dump.

        Lookups (hits + misses + bypasses) of the routing cache, the
        sample bank and the result cache are equal at ``--jobs 1`` and
        ``--jobs 2``; occupancy is per process, so it is not compared.
        Each run gets a cold result cache of its own.
        """
        import json

        lookups = {}
        for experiment, batch in (("appsweep", "40"), ("fig4", "60")):
            for jobs in ("1", "2"):
                run = f"{experiment}-{jobs}"
                monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / run))
                path = tmp_path / f"{run}.json"
                args = [
                    "run", experiment, "--batch", batch, "--seed", "7",
                    "--jobs", jobs, "--quiet", "--dump-json", str(path),
                ]
                assert main(args) == 0
                engine = json.loads(path.read_text())["engine"]
                lookups[run] = {
                    block: sum(
                        engine[block].get(key, 0)
                        for key in ("hits", "misses", "bypasses")
                    )
                    for block in ("routing_cache", "sample_bank", "result_cache")
                }
        capsys.readouterr()
        assert lookups["appsweep-1"]["routing_cache"] > 0
        assert lookups["fig4-1"]["sample_bank"] > 0
        assert lookups["fig4-1"]["result_cache"] > 0
        for experiment in ("appsweep", "fig4"):
            assert lookups[f"{experiment}-1"] == lookups[f"{experiment}-2"]

    def test_dump_json_reports_engine_stats(self, tmp_path, capsys):
        import json

        path = tmp_path / "fig4.json"
        args = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--quiet", "--dump-json", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        engine = payload["engine"]
        assert engine["jobs"] == 1
        assert engine["workers_used"] == 1
        assert engine["tasks_total"] >= engine["tasks_executed"] > 0
        assert {"cache_hits", "wall_seconds", "routing_cache", "sample_bank"} <= set(
            engine
        )

    def test_dump_json_reports_unattributed_seconds(self, tmp_path, capsys):
        """At ``--jobs 1`` the phases run inside the engine's wall, so the
        residual ``wall_seconds - sum(seconds_by_phase)`` is not negative."""
        import json

        path = tmp_path / "table2.json"
        args = [
            "run", "table2", "--jobs", "1", "--no-cache", "--quiet",
            "--dump-json", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        engine = json.loads(path.read_text())["engine"]
        assert engine["seconds_by_phase"]["compile.layout"] > 0
        # Benchmark circuit builds are a phase of their own.
        assert engine["seconds_by_phase"]["circuit"] > 0
        assert engine["unattributed_seconds"] == pytest.approx(
            engine["wall_seconds"] - sum(engine["seconds_by_phase"].values())
        )
        assert engine["unattributed_seconds"] >= 0


class TestObservabilityCLI:
    """``run --trace``, the ``trace`` summarizer and the logging flags."""

    def test_run_trace_writes_chrome_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "fig4.trace.json"
        args = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--no-cache", "--quiet", "--trace", str(path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "span(s) written to" in out
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "run:fig4" in names and "engine.batch" in names
        assert any(name.startswith("task:") for name in names)
        assert any(name.startswith("phase:") for name in names)
        # Exactly one root: the run span; everything else hangs off it.
        roots = [e for e in events if e["args"].get("parent") is None]
        assert [e["name"] for e in roots] == ["run:fig4"]

    def test_run_trace_jsonl_format(self, tmp_path, capsys):
        import json

        path = tmp_path / "fig4.trace.jsonl"
        args = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--no-cache", "--quiet", "--trace", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        lines = path.read_text().splitlines()
        assert lines
        span = json.loads(lines[0])
        assert {"name", "id", "parent", "ts", "dur", "pid", "tid"} <= set(span)

    def test_trace_summarizer_roundtrip(self, tmp_path, capsys):
        import json

        path = tmp_path / "t.trace.json"
        args = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--no-cache", "--quiet", "--trace", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top spans:" in out and "critical path:" in out
        assert main(["trace", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["span_count"] > 0
        assert summary["top_spans"][0]["name"] == "run:fig4"

    def test_trace_summarizer_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_traced_and_untraced_runs_agree(self, tmp_path, capsys):
        base = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--no-cache",
        ]
        assert main(base) == 0
        plain = capsys.readouterr().out
        assert main([*base, "--trace", str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith(("[engine]", "[trace]"))
        ]
        assert strip(plain) == strip(traced)

    def test_dump_json_reports_cache_counters(self, tmp_path, capsys):
        import json

        path = tmp_path / "fig4.json"
        args = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--quiet", "--dump-json", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        engine = json.loads(path.read_text())["engine"]
        assert {"hits", "misses", "evictions", "entries", "sources_computed"} <= set(
            engine["routing_cache"]
        )
        assert {"hits", "misses", "poisoned_unlinks"} <= set(engine["result_cache"])
        assert engine["result_cache"]["misses"] > 0  # cold cache: all misses
        assert list(engine["seconds_by_phase"]) == sorted(engine["seconds_by_phase"])

    def test_dump_json_without_cache_reports_null(self, tmp_path, capsys):
        import json

        path = tmp_path / "fig4.json"
        args = [
            "run", "fig4", "--batch", "60", "--jobs", "1", "--seed", "7",
            "--no-cache", "--quiet", "--dump-json", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["engine"]["result_cache"] is None

    def test_bad_log_level_exits_two(self, capsys):
        assert main(["run", "fig4", "--log-level", "loud"]) == 2
        assert "invalid logging options" in capsys.readouterr().err
