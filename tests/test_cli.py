"""CLI tests (argument parsing and end-to-end command flows)."""

import json
import logging

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def input_file(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"xx" + b"a" + b"b" * 20 + b"c" + b"yy")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile", "ab{3}c"])
        assert args.bv_size == 64
        assert args.unfold_threshold == 4

    def test_arch_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "a", "--arch", "GPU"])

    @pytest.mark.parametrize(
        "verb,extra",
        [
            ("compile", ["a"]),
            ("scan", ["a"]),
            ("simulate", ["a"]),
            ("trace", ["a"]),
            ("dataset", ["Snort"]),
        ],
    )
    def test_common_flags_on_every_verb(self, verb, extra):
        args = build_parser().parse_args(
            [verb, *extra, "-v", "--seed", "7", "--metrics-out", "m.json"]
        )
        assert args.verbose is True
        assert args.seed == 7
        assert args.metrics_out == "m.json"

    def test_seed_defaults_to_zero(self):
        assert build_parser().parse_args(["dataset", "Snort"]).seed == 0

    def test_trace_verb_default_trace_out(self):
        assert build_parser().parse_args(["trace", "a"]).trace_out == "trace.json"


class TestSeedAndVerbose:
    def test_dataset_same_seed_is_deterministic(self, capsys):
        main(["dataset", "Snort", "-n", "8", "--seed", "11"])
        first = capsys.readouterr().out
        main(["dataset", "Snort", "-n", "8", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_dataset_different_seeds_differ(self, capsys):
        main(["dataset", "Snort", "-n", "8", "--seed", "11"])
        first = capsys.readouterr().out
        main(["dataset", "Snort", "-n", "8", "--seed", "12"])
        assert capsys.readouterr().out != first

    def test_seed_applies_to_stream_generation(self, tmp_path, capsys):
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path in paths:
            main(["dataset", "YARA", "-n", "3", "--seed", "5",
                  "--stream", "256", "--stream-output", str(path)])
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_verbose_sets_debug_level(self, input_file, capsys):
        main(["scan", "a", "-i", input_file, "-v"])
        assert logging.getLogger().getEffectiveLevel() == logging.DEBUG
        main(["scan", "a", "-i", input_file])
        assert logging.getLogger().getEffectiveLevel() == logging.INFO

    def test_scan_summary_logged_to_stderr(self, input_file, capsys):
        main(["scan", "ab{20}c", "-i", input_file])
        err = capsys.readouterr().err
        assert "1 matches" in err and "repro.cli" in err


class TestScan:
    def test_scan_prints_matches(self, input_file, capsys):
        assert main(["scan", "ab{20}c", "-i", input_file]) == 0
        out = capsys.readouterr().out
        assert "ab{20}c" in out

    def test_scan_engine_choice(self, input_file, capsys):
        for engine in ("ah", "nfa", "fused"):
            main(["scan", "ab{20}c", "-i", input_file, "--engine", engine])
        outputs = capsys.readouterr().out.strip().splitlines()
        assert outputs[0] == outputs[1] == outputs[2]

    def test_scan_sharded_engine_matches_fused(self, input_file, capsys):
        main(["scan", "ab{20}c", "xx", "-i", input_file, "--engine", "fused"])
        fused_out = capsys.readouterr().out
        assert main([
            "scan", "ab{20}c", "xx", "-i", input_file,
            "--engine", "sharded", "--shards", "2",
        ]) == 0
        assert capsys.readouterr().out == fused_out

    def test_patterns_from_file(self, tmp_path, input_file, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text("ab{20}c\nxx\n")
        main(["scan", f"@{rules}", "-i", input_file])
        out = capsys.readouterr().out
        assert "xx" in out and "ab{20}c" in out

    def test_empty_pattern_file_rejected(self, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("\n")
        with pytest.raises(SystemExit):
            main(["scan", f"@{rules}", "-i", "-"])


class TestBench:
    def test_bench_explicit_patterns(self, input_file, tmp_path, capsys):
        record_path = tmp_path / "bench.json"
        assert main([
            "bench", "ab{20}c", "xx", "-i", input_file,
            "--engines", "fused,nfa", "--repeats", "1",
            "--json", str(record_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "fused-vs-nfa" in out
        record = json.loads(record_path.read_text())
        assert record["benchmark"] == "fused_scan"
        assert record["grid"][0]["num_patterns"] == 2
        assert "fused_speedup" in record["grid"][0]

    def test_bench_synthetic_workload(self, capsys):
        assert main([
            "bench", "--dataset", "RegexLib", "--num-patterns", "2",
            "--input-size", "512", "--engines", "fused,nfa",
            "--repeats", "1", "--seed", "3",
        ]) == 0
        assert "scan bench" in capsys.readouterr().out

    def test_bench_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "a", "-i", "-", "--engines", "quantum"])

    def test_bench_sharded_engine(self, input_file, capsys):
        assert main([
            "bench", "ab{20}c", "xx", "-i", input_file,
            "--engines", "fused,sharded", "--shards", "2", "--repeats", "1",
        ]) == 0
        assert "sharded" in capsys.readouterr().out


class TestCompile:
    def test_compile_writes_config(self, tmp_path, capsys):
        out_path = tmp_path / "config.json"
        assert main(["compile", "ab{100}c", "-o", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["regexes"][0]["pattern"] == "ab{100}c"
        assert "compiled 1 patterns" in capsys.readouterr().out

    def test_compile_reports_rejections(self, tmp_path, capsys):
        out_path = tmp_path / "config.json"
        main(["compile", "ok", "(((", "-o", str(out_path)])
        captured = capsys.readouterr()
        assert "rejected" in captured.err


class TestSimulate:
    @pytest.mark.parametrize("arch", ["BVAP", "BVAP-S", "CAMA", "eAP", "CA"])
    def test_simulate_all_architectures(self, arch, input_file, capsys):
        assert main(["simulate", "ab{20}c", "-i", input_file, "--arch", arch]) == 0
        out = capsys.readouterr().out
        assert f"architecture     : {arch}" in out
        assert "matches          : 1" in out


class TestDataset:
    def test_dataset_generation(self, capsys):
        assert main(["dataset", "Prosite", "-n", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5

    def test_dataset_stream_output(self, tmp_path, capsys):
        stream_path = tmp_path / "stream.bin"
        main(
            [
                "dataset",
                "YARA",
                "-n",
                "3",
                "--stream",
                "200",
                "--stream-output",
                str(stream_path),
            ]
        )
        assert stream_path.stat().st_size == 200

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["dataset", "NotADataset"])


class TestSimulateFromConfig:
    def test_config_programmed_run(self, tmp_path, input_file, capsys):
        config_path = tmp_path / "config.json"
        main(["compile", "ab{20}c", "-o", str(config_path)])
        capsys.readouterr()
        assert main(["simulate", "--config", str(config_path),
                     "-i", input_file]) == 0
        out = capsys.readouterr().out
        assert "matches          : 1" in out

    def test_config_with_baseline_arch_rejected(self, tmp_path, input_file):
        config_path = tmp_path / "config.json"
        main(["compile", "a", "-o", str(config_path)])
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(config_path),
                  "--arch", "CAMA", "-i", input_file])


class TestPatternFormats:
    def test_prosite_format(self, tmp_path, capsys):
        path = tmp_path / "in.bin"
        path.write_bytes(b"ACAKCD")
        assert main(["scan", "--format", "prosite", "C-x(2)-C.",
                     "-i", str(path)]) == 0
        assert "C.{2}C" in capsys.readouterr().out

    def test_snort_format(self, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text(
            'alert tcp any any -> any 80 (pcre:"/ab{3}c/"; sid:1;)\n'
        )
        path = tmp_path / "in.bin"
        path.write_bytes(b"zabbbcz")
        assert main(["scan", "--format", "snort", f"@{rules}",
                     "-i", str(path)]) == 0
        assert "ab{3}c" in capsys.readouterr().out

    def test_snort_format_keeps_pcre_flags(self, tmp_path, capsys):
        # /^GET/smi folds to (?ism)^GET like the ruleset importer does;
        # multiline plus an anchor is rejected, never scanned as (?i)^GET.
        rules = tmp_path / "rules.txt"
        rules.write_text(
            'alert tcp any any -> any 80 (pcre:"/^GET/smi"; sid:1;)\n'
            'alert tcp any any -> any 80 (pcre:"/ab{3}c/"; sid:2;)\n'
        )
        path = tmp_path / "in.bin"
        path.write_bytes(b"GET zabbbcz")
        argv = ["scan", "--format", "snort", f"@{rules}", "-i", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error[E_UNSUPPORTED]" in err
        assert "(?ism)^GET" in err
        assert main(argv + ["--quarantine"]) == 0
        captured = capsys.readouterr()
        assert "rejected pattern 0" in captured.err
        assert "ab{3}c" in captured.out
        assert "GET" not in captured.out


class TestStructuredErrors:
    def test_syntax_error_prints_caret_and_exits_2(self, capsys):
        assert main(["scan", "bad(", "-i", "/dev/null"]) == 2
        err = capsys.readouterr().err
        assert "error[E_SYNTAX]" in err
        assert "^" in err

    def test_json_error_object(self, capsys):
        assert main(["scan", "bad(", "--json", "-i", "/dev/null"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "E_SYNTAX"
        assert doc["error"]["pattern"] == "bad("
        assert doc["error"]["pos"] == 4

    def test_budget_flags_reach_the_compiler(self, capsys):
        # The rewrite splits {2,200} into <=64-wide scopes, so a budget
        # tighter than one hardware BV must trip on the first scope.
        assert main(["scan", "a{2,200}b", "--max-bv-width", "16",
                     "-i", "/dev/null"]) == 2
        assert "error[E_BUDGET]" in capsys.readouterr().err

    def test_quarantine_flag_keeps_scanning(self, input_file, capsys):
        assert main(["scan", "ab{20}c", "bad(", "--quarantine",
                     "-i", input_file]) == 0
        captured = capsys.readouterr()
        assert "rejected pattern 1" in captured.err
        assert "ab{20}c" in captured.out

    def test_compile_quarantines_and_succeeds(self, tmp_path, capsys):
        out_path = tmp_path / "config.json"
        assert main(["compile", "ok", "(((", "-o", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert "E_SYNTAX" in captured.err
        assert "1 quarantined" in captured.out


class TestFaultsVerb:
    def test_masked_run_exits_zero(self, input_file, capsys):
        assert main(["faults", "ab{20}c", "-i", input_file]) == 0
        out = capsys.readouterr().out
        assert "first divergence : none" in out
        assert "injected faults  : cam=0, bv=0, counter=0" in out

    def test_divergence_reported(self, capsys):
        assert main(["faults", "ab{3}c", "--input-size", "512",
                     "--cam-rate", "0.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "first divergence : cycle" in out

    def test_same_seed_same_report(self, capsys):
        argv = ["faults", "ab{3}c", "--input-size", "256",
                "--cam-rate", "0.3", "--bv-rate", "0.2", "--seed", "7"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_json_report(self, capsys):
        assert main(["faults", "ab{3}c", "--input-size", "128",
                     "--cam-rate", "0.5", "--seed", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 1
        assert doc["injected_by_kind"]["cam"] == len(doc["injected"])

    def test_expect_divergence_fails_when_masked(self, input_file):
        assert main(["faults", "ab{20}c", "-i", input_file,
                     "--expect-divergence"]) == 1

    def test_expect_divergence_passes_when_diverged(self):
        assert main(["faults", "ab{3}c", "--input-size", "512",
                     "--cam-rate", "0.5", "--seed", "3",
                     "--expect-divergence"]) == 0


class TestChaosVerb:
    def test_chaos_campaign_exits_zero_when_lossless(self, capsys):
        assert main(["faults", "ab{2,4}c", "xy", "--chaos", "--seed", "7",
                     "--input-size", "8192", "--chunk-bytes", "512",
                     "--max-restarts", "1"]) == 0
        out = capsys.readouterr().out
        assert "stream parity    : byte-identical" in out
        assert "injected faults  :" in out

    def test_chaos_json_report(self, capsys):
        assert main(["faults", "ab{2,4}c", "xy", "--chaos", "--seed", "7",
                     "--input-size", "8192", "--chunk-bytes", "512",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 7
        assert doc["diverged"] is False
        assert doc["golden_matches"] == doc["chaos_matches"]
        assert len(doc["faults"]) == 2

    def test_chaos_same_seed_same_schedule(self, capsys):
        argv = ["faults", "ab{2,4}c", "--chaos", "--seed", "11",
                "--input-size", "4096", "--chunk-bytes", "512", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["faults"] == second["faults"]

    def test_chaos_kind_parsing_rejected_early(self, capsys):
        assert main(["faults", "ab", "--chaos", "--chaos-kinds", "meteor",
                     "--input-size", "256"]) == 2
        assert "error[E_FAULT]" in capsys.readouterr().err

    def test_supervision_flags_reach_the_budget(self):
        args = build_parser().parse_args(
            ["scan", "a", "--max-restarts", "3", "--checkpoint-chunks", "16"]
        )
        assert args.max_restarts == 3
        assert args.checkpoint_chunks == 16
        from repro.cli import _budget

        budget = _budget(args)
        assert budget.restart is not None
        assert budget.restart.max_restarts == 3
        assert budget.restart.checkpoint_chunks == 16

    def test_no_restart_flag_means_no_policy(self):
        args = build_parser().parse_args(["scan", "a"])
        from repro.cli import _budget

        assert _budget(args).restart is None
