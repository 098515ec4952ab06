"""The ``chopin`` command-line interface."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.jvm.batch as batch_mod
from repro.harness.cli import build_parser, main
from repro.harness.config import harness_config
from repro.resilience import Supervisor


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "specjbb"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "h2" in out and "lusearch" in out
        assert "[new, latency]" in out  # cassandra et al.

    def test_stats(self, capsys):
        assert main(["stats", "lusearch"]) == 0
        out = capsys.readouterr().out
        assert "ARA" in out and "23556" in out

    def test_lbo(self, capsys):
        assert main(["lbo", "fop", "--invocations", "2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "normalized time overhead" in out
        assert "normalized CPU overhead" in out

    def test_lbo_parallel_cached(self, capsys, tmp_path):
        argv = [
            "lbo", "fop", "--invocations", "2", "--scale", "0.02",
            "--jobs", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "normalized time overhead" in cold
        assert any(tmp_path.iterdir())  # cache populated
        # Warm rerun is served entirely from the cache and prints the same
        # tables (the engine's determinism guarantee).
        assert main(argv) == 0
        assert capsys.readouterr().out == cold

    def test_compare_unknown_collector_hint(self, capsys):
        assert main(["compare", "fop", "G1", "CMS"]) == 2
        err = capsys.readouterr().err
        assert "unknown collector 'CMS'" in err and "Shenandoah" in err

    def test_latency(self, capsys):
        assert main(["latency", "spring", "--invocations", "1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "simple" in out
        assert "full smoothing" in out

    def test_latency_rejects_non_latency_workload(self, capsys):
        assert main(["latency", "fop", "--invocations", "1", "--scale", "0.05"]) == 2

    def test_pca(self, capsys):
        assert main(["pca"]) == 0
        out = capsys.readouterr().out
        assert "PC1" in out
        assert "twelve most determinant" in out


class TestArgumentValidation:
    """Bad option values must exit non-zero with a one-line message —
    never a traceback (satellite of the resilience PR)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lbo", "fop", "--jobs", "0"],
            ["lbo", "fop", "--jobs", "four"],
            ["lbo", "fop", "--jobs", "-2"],
            ["trace", "fop", "--ring-size", "0"],
            ["trace", "fop", "--ring-size", "huge"],
            ["lbo", "fop", "--invocations", "0"],
            ["lbo", "fop", "--scale", "-1"],
            ["lbo", "fop", "--retries", "-1"],
            ["lbo", "fop", "--cell-timeout", "0"],
            ["lbo", "fop", "--chaos-rate", "1.5"],
            ["lbo", "fop", "--budget", "-1"],
            ["lbo", "fop", "--budget", "0"],
            ["lbo", "fop", "--budget", "soon"],
            ["lbo", "fop", "--breaker-threshold", "0"],
            ["lbo", "fop", "--breaker-threshold", "-3"],
            ["lbo", "fop", "--breaker-threshold", "many"],
        ],
    )
    def test_invalid_value_exits_2_with_one_line(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "expected a" in err
        assert "Traceback" not in err

    def test_valid_resilience_flags_accepted(self):
        args = build_parser().parse_args(
            ["lbo", "fop", "--retries", "3", "--cell-timeout", "30",
             "--chaos-rate", "0.3", "--chaos-seed", "7"]
        )
        assert args.retries == 3 and args.cell_timeout == 30.0
        assert args.chaos_rate == 0.3 and args.chaos_seed == 7


class TestChaosCommand:
    def test_drill_passes(self, capsys):
        argv = ["chaos", "lusearch", "--multiple", "2.0", "--scale", "0.05"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "chaos drill" in out
        assert "PASS" in out and "bit-identical" in out

    def test_unknown_collector_rejected(self, capsys):
        assert main(["chaos", "lusearch", "--collector", "CMS"]) == 2
        assert "unknown collector 'CMS'" in capsys.readouterr().err


class TestCharacterizeCommand:
    def test_characterize(self, capsys):
        assert main(["characterize", "fop", "--invocations", "2", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "GCC" in out and "PMS" in out
        assert "measured" in out and "published" in out


class TestRunbmsCommand:
    def test_kick_the_tires(self, capsys, tmp_path):
        assert main(["runbms", str(tmp_path), "kick-the-tires", "-p", "kt"]) == 0
        out = capsys.readouterr().out
        assert "artefacts for experiment" in out
        assert (tmp_path / "kt-geomean-wall.txt").exists()

    def test_unknown_experiment(self, capsys, tmp_path):
        assert main(["runbms", str(tmp_path), "nope"]) == 2

    def test_scale_override(self, capsys, tmp_path):
        assert main(["runbms", str(tmp_path), "kick-the-tires", "-s", "0.02"]) == 0


class TestCompareCommand:
    def test_compare(self, capsys):
        assert main(["compare", "lusearch", "Parallel", "Serial",
                     "--heap", "2", "--invocations", "5", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "(wall)" in out and "(task)" in out

    def test_unknown_collector(self, capsys):
        assert main(["compare", "fop", "G1", "CMS"]) == 2


class TestInsightsCommand:
    def test_insights(self, capsys):
        assert main(["insights", "avrora"]) == 0
        out = capsys.readouterr().out
        assert "kernel mode" in out


class TestSupervisedLbo:
    def test_tiny_budget_exits_cleanly_with_holes(self, capsys, tmp_path):
        argv = ["lbo", "lusearch", "--budget", "0.000001",
                "--cache-dir", str(tmp_path / "cache"),
                "--invocations", "1", "--scale", "0.05"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "supervision:" in err and "over budget" in err

    def test_budget_then_resume_completes(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache"),
                 "--invocations", "1", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--budget", "0.000001"] + cache) == 0
        capsys.readouterr()
        assert main(["lbo", "lusearch"] + cache) == 0
        out = capsys.readouterr().out
        assert "lusearch" in out  # the resumed sweep printed real curves

    def test_generous_budget_prints_curves(self, capsys):
        argv = ["lbo", "lusearch", "--budget", "3600",
                "--breaker-threshold", "5",
                "--invocations", "1", "--scale", "0.05"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "lusearch" in captured.out
        assert "incomplete" not in captured.err


class TestResumeThroughCache:
    """Resuming a sweep is rerunning it with the same ``--cache-dir``;
    the retired ``--resume`` and ``doctor --journal`` flags are usage
    errors."""

    def test_killed_sweep_reruns_from_its_cache(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if not k.startswith("CHOPIN_")}
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "repro.harness.cli", "lbo", "lusearch",
                "--invocations", "1", "--scale", "0.05"]
        cache = tmp_path / "cache"
        resumable = argv + ["--cache-dir", str(cache)]
        first = subprocess.Popen(
            resumable, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.monotonic() + 120
        while len(list(cache.glob("??/*.pkl"))) < 10:
            assert first.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        first.send_signal(signal.SIGKILL)
        first.wait()
        cached = len(list(cache.glob("??/*.pkl")))
        assert 10 <= cached < 40, "the kill must land mid-sweep"

        rerun = subprocess.run(
            resumable + ["--cell-progress"], env=env, capture_output=True,
            text=True, check=True,
        )
        cells = [line for line in rerun.stderr.splitlines() if " inv" in line]
        assert len(cells) == 40
        # Exactly the cells the killed run finished come from the cache;
        # only the rest are simulated.
        assert sum(line.endswith(": cached") for line in cells) == cached
        assert len(list(cache.glob("??/*.pkl"))) == 40
        clean = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        assert rerun.stdout == clean.stdout

    def test_cache_dir_run_keeps_batch_rows(self, tmp_path, monkeypatch):
        calls = []
        real = batch_mod.simulate_batch
        monkeypatch.setattr(
            batch_mod, "simulate_batch", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        argv = ["lbo", "fop", "--batch", "--cache-dir", str(tmp_path / "cache"),
                "--invocations", "1", "--scale", "0.02"]
        assert main(argv) == 0
        assert calls, "a resumable (--cache-dir) run must still batch"

    @pytest.mark.parametrize(
        "argv",
        [["lbo", "fop", "--resume", "j.jsonl"], ["doctor", "--cache-dir", "c", "--journal", "j"]],
        ids=["resume", "doctor-journal"],
    )
    def test_retired_resume_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_chopin_resume_is_ignored(self, capsys):
        assert harness_config(environ={"CHOPIN_RESUME": "j.jsonl"}) == harness_config(
            environ={}
        )
        assert capsys.readouterr().err == ""


class TestSupervisedCampaignVerbs:
    """Every campaign verb handles a supervised run like ``chopin lbo``:
    refused cells are holes summarised on stderr, and the exit is 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["latency", "cassandra"],
            ["minheap", "lusearch", "--collector", "G1"],
            ["trace", "fop", "--collector", "G1"],
        ],
        ids=["latency", "minheap", "trace"],
    )
    def test_tiny_budget_exits_cleanly_with_holes(self, capsys, tmp_path, argv):
        if argv[0] == "trace":
            argv = argv + ["--trace-out", str(tmp_path / "trace.json")]
        argv = argv + ["--budget", "0.000001", "--invocations", "1", "--scale", "0.05"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "supervision:" in err and "over budget" in err

    def test_unsupervised_run_installs_no_signal_handlers(self, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("an unsupervised run entered the default supervisor")

        monkeypatch.setattr(Supervisor, "install", refuse)
        assert main(["lbo", "fop", "--invocations", "1", "--scale", "0.02"]) == 0
        assert "normalized time overhead" in capsys.readouterr().out


class TestDoctorCommand:
    def test_doctor_heals_torn_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        base = ["--invocations", "1", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--cache-dir", cache] + base) == 0
        capsys.readouterr()
        # Tear one entry the way a crashed writer would.
        victim = next((tmp_path / "cache").glob("??/*.pkl"))
        victim.write_bytes(victim.read_bytes()[: 40])
        assert main(["doctor", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert "quarantined 1" in captured.out
        assert not victim.exists()

    def test_doctor_dry_run_leaves_rot_in_place(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["lbo", "lusearch", "--cache-dir", cache,
                     "--invocations", "1", "--scale", "0.05"]) == 0
        victim = next((tmp_path / "cache").glob("??/*.pkl"))
        victim.write_bytes(b"rot")
        capsys.readouterr()
        assert main(["doctor", "--cache-dir", cache, "--dry-run"]) == 0
        assert victim.exists()

    def test_doctor_verify_clean_cache(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        base = ["--invocations", "2", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--cache-dir", cache] + base) == 0
        capsys.readouterr()
        assert main(["doctor", "--cache-dir", cache, "--verify", "lusearch",
                     "--verify-sample", "4", "--invocations", "2",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "4 matched" in out

    def test_doctor_verify_flags_divergence(self, capsys, tmp_path):
        import dataclasses
        import pickle

        cache = str(tmp_path / "cache")
        base = ["--invocations", "2", "--scale", "0.05"]
        assert main(["lbo", "lusearch", "--cache-dir", cache] + base) == 0
        capsys.readouterr()
        # Swap one entry's payload for another's: valid pickle, wrong bits.
        paths = sorted((tmp_path / "cache").glob("??/*.pkl"))
        donor = pickle.loads(paths[1].read_bytes())
        paths[0].write_bytes(
            pickle.dumps(dataclasses.replace(donor, key=paths[0].stem))
        )
        assert main(["doctor", "--cache-dir", cache, "--verify", "lusearch",
                     "--verify-sample", "8", "--invocations", "2",
                     "--scale", "0.05"]) == 1
        captured = capsys.readouterr()
        assert "1 mismatched" in captured.out
        assert "divergent payload quarantined" in captured.err
