"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestStampCommands:
    def test_seed(self, capsys):
        assert main(["stamp", "seed"]) == 0
        assert "[ε | ε]" in capsys.readouterr().out

    def test_parse_reports_components_and_size(self, capsys):
        assert main(["stamp", "parse", "[1 | 01+1]"]) == 0
        output = capsys.readouterr().out
        assert "update:     1" in output
        assert "id:         01+1" in output
        assert "bits" in output

    def test_update(self, capsys):
        assert main(["stamp", "update", "[ε | 01]"]) == 0
        assert "[01 | 01]" in capsys.readouterr().out

    def test_fork(self, capsys):
        assert main(["stamp", "fork", "[ε | 1]"]) == 0
        output = capsys.readouterr().out
        assert "[ε | 10]" in output
        assert "[ε | 11]" in output

    def test_join_reducing_and_not(self, capsys):
        assert main(["stamp", "join", "[ε | 0]", "[ε | 1]"]) == 0
        assert "[ε | ε]" in capsys.readouterr().out
        assert main(["stamp", "join", "--no-reduce", "[ε | 0]", "[ε | 1]"]) == 0
        assert "[ε | 0+1]" in capsys.readouterr().out

    def test_normalize(self, capsys):
        assert main(["stamp", "normalize", "[1 | 00+01+1]"]) == 0
        assert "[ε | ε]" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["stamp", "compare", "[ε | 0]", "[1 | 1]"]) == 0
        assert "before" in capsys.readouterr().out

    def test_invalid_stamp_reports_error(self, capsys):
        assert main(["stamp", "parse", "garbage"]) == 1
        assert "error" in capsys.readouterr().err


class TestAnalysisCommands:
    def test_figures_reproduce(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "FIG1" in output and "FIG4" in output
        assert "MISMATCH" not in output

    def test_check(self, capsys):
        assert main(["check", "--operations", "3", "--max-frontier", "3"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--workload",
                    "churn",
                    "--operations",
                    "40",
                    "--seed",
                    "2",
                    "--fast",
                    "--diagram",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "version-stamps" in output
        assert "final frontier" in output

    @pytest.mark.parametrize(
        "family", ["version-stamp", "itc", "vv-dynamic", "causal-history"]
    )
    def test_simulate_single_clock_family(self, family, capsys):
        # The same trace, any registered family, all through the kernel's
        # CausalityClock protocol -- and every family must fully agree with
        # the causal-history oracle (exit code 0).
        args = ["simulate", "--operations", "50", "--seed", "11", "--clock", family]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert ("causal-history (oracle)") in output

    def test_simulate_rejects_unknown_clock(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--clock", "sundial"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestKernelCommands:
    def test_families_lists_the_registry(self, capsys):
        assert main(["kernel", "families"]) == 0
        output = capsys.readouterr().out
        for family in ("version-stamp", "itc", "vv-dynamic", "causal-history"):
            assert family in output

    def test_families_prints_the_frozen_wire_tag_table(self, capsys):
        # The one-byte wire tags are a compatibility contract: decoders in
        # the wild dispatch on them, so the table is pinned here exactly.
        assert main(["kernel", "families"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["tag", "family", "description"]
        table = {
            int(line.split()[0]): line.split()[1] for line in lines[1:]
        }
        assert table == {
            1: "version-stamp",
            2: "itc",
            3: "vv-dynamic",
            4: "causal-history",
        }

    @pytest.mark.parametrize("family", ["version-stamp", "itc", "vv-dynamic"])
    def test_roundtrip(self, family, capsys):
        assert main(["kernel", "roundtrip", "--clock", family, "--epoch", "5"]) == 0
        output = capsys.readouterr().out
        assert "epoch:    5" in output
        assert "restored == original: True" in output


class TestContractsCommands:
    def test_demo_violation_exits_2_with_provenance(self, capsys):
        assert main(["contracts", "demo"]) == 2
        output = capsys.readouterr().out
        assert "contract 'train-sees-latest-export' violated" in output
        assert "is stale on key 'dataset'" in output
        # The provenance trace names the sync paths that should have
        # carried the export, with the fault counters that destroyed them.
        assert "sync paths that should have carried it" in output
        assert "pipeline-a <-> " in output
        assert "dropped=" in output and "gave_up=" in output

    def test_demo_propagated_exits_0(self, capsys):
        assert main(["contracts", "demo", "--rounds", "12"]) == 0
        assert "contract holds" in capsys.readouterr().out

    @pytest.mark.parametrize("family", ["itc", "causal-history"])
    def test_demo_is_family_generic(self, family, capsys):
        assert main(["contracts", "demo", "--clock", family]) == 2
        assert "violated" in capsys.readouterr().out


class TestPanasyncCommands:
    def test_full_workflow(self, tmp_path, capsys):
        repo = tmp_path / "desktop"
        other = tmp_path / "laptop"
        source = tmp_path / "draft.txt"
        source.write_text("v1", encoding="utf-8")

        assert main(["panasync", "--repository", str(repo), "create", "draft.txt", "--source", str(source)]) == 0
        assert main(["panasync", "--repository", str(repo), "copy", "draft.txt", str(other)]) == 0

        source.write_text("v2", encoding="utf-8")
        assert main(["panasync", "--repository", str(repo), "edit", "draft.txt", str(source)]) == 0

        # The laptop copy is now outdated but not diverged -> exit code 0.
        assert main(["panasync", "--repository", str(other), "compare", "draft.txt", str(repo)]) == 0
        assert main(["panasync", "--repository", str(other), "merge", "draft.txt", str(repo)]) == 0
        assert main(["panasync", "--repository", str(other), "status"]) == 0
        output = capsys.readouterr().out
        assert "draft.txt" in output

    def test_compare_exit_code_signals_divergence(self, tmp_path, capsys):
        repo = tmp_path / "a"
        other = tmp_path / "b"
        source = tmp_path / "f.txt"
        source.write_text("base", encoding="utf-8")
        main(["panasync", "--repository", str(repo), "create", "f.txt", "--source", str(source)])
        main(["panasync", "--repository", str(repo), "copy", "f.txt", str(other)])
        source.write_text("left", encoding="utf-8")
        main(["panasync", "--repository", str(repo), "edit", "f.txt", str(source)])
        source.write_text("right", encoding="utf-8")
        main(["panasync", "--repository", str(other), "edit", "f.txt", str(source)])
        assert main(["panasync", "--repository", str(repo), "compare", "f.txt", str(other)]) == 2


class TestServeSimCommand:
    def test_small_cluster_converges(self, capsys):
        assert (
            main(
                [
                    "serve-sim", "--replicas", "64", "--keys", "3",
                    "--shards", "2", "--max-rounds", "32",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "converged after round" in output
        assert "virtual seconds" in output

    def test_lossy_lockstep_run(self, capsys):
        assert (
            main(
                [
                    "serve-sim", "--replicas", "32", "--keys", "2", "--loss", "0.2",
                    "--lockstep", "--shards", "1", "--max-rounds", "40",
                ]
            )
            == 0
        )
        assert "lockstep mode" in capsys.readouterr().out

    def test_round_budget_exhaustion_fails(self, capsys):
        assert (
            main(
                [
                    "serve-sim", "--replicas", "32", "--keys", "3",
                    "--max-rounds", "1",
                ]
            )
            == 1
        )
        assert "FAIL" in capsys.readouterr().out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
