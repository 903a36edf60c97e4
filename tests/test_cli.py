"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.core.models import MulticastModel
from repro.workloads import generate_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestCommands:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1", "--n-ports", "4", "--k", "2")
        assert "Table 1" in out and "MAW" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2", "--n-ports", "64", "--k", "2")
        assert "MSW/MS" in out

    def test_table2_maw_dominant(self, capsys):
        out = run_cli(
            capsys,
            "table2",
            "--n-ports",
            "64",
            "--k",
            "2",
            "--construction",
            "maw-dominant",
        )
        assert "MAW-dominant" in out

    def test_bounds(self, capsys):
        out = run_cli(capsys, "bounds", "--n", "4", "--r", "4", "--k", "2")
        assert "minimal m" in out

    def test_crossover(self, capsys):
        out = run_cli(capsys, "crossover", "--k", "2")
        assert "multistage beats crossbar" in out

    def test_capacity(self, capsys):
        out = run_cli(capsys, "capacity", "--n-ports", "4", "--k-max", "3")
        assert "log10" in out

    def test_blocking(self, capsys):
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1", "--m-max", "4"
        )
        assert "P(block)" in out

    def test_fig10(self, capsys):
        out = run_cli(capsys, "fig10")
        assert "BLOCKED" in out and "routed" in out

    def test_blocking_cache_footer(self, capsys, tmp_path):
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--cache", "--cache-dir", str(tmp_path),
        )
        assert "cache: 0 hits" in out and "6 stored" in out
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--cache", "--cache-dir", str(tmp_path),
        )
        assert "cache: 6 hits" in out

    BLOCKING = ("blocking", "--n", "2", "--r", "2", "--k", "1", "--m-max", "4")

    def test_blocking_kernel_flag_same_numbers(self, capsys):
        """The process routing kernel never changes the lockstep numbers."""
        from repro.multistage.routing import routing_kernel

        default = run_cli(capsys, *self.BLOCKING)
        with routing_kernel("reference"):
            assert run_cli(capsys, *self.BLOCKING) == default

    def test_blocking_batched_cache_footer(self, capsys, tmp_path):
        """Lockstep cells land in the cache with per-cell granularity."""
        args = (
            "blocking", "--n", "2", "--r", "2", "--k", "1", "--m-max", "2",
            "--cache", "--cache-dir", str(tmp_path),
        )
        out = run_cli(capsys, *args)
        assert "cache: 0 hits" in out and "6 stored" in out
        for path in sorted(tmp_path.glob("*.pkl"))[:2]:
            path.unlink()
        out = run_cli(capsys, *args)
        assert "cache: 4 hits, 2 misses, 2 stored" in out

    def test_blocking_prints_confidence_interval(self, capsys):
        out = run_cli(capsys, *self.BLOCKING)
        assert "CI95" in out and "+/-" in out

    SWEEP = (
        "sweep", "--n", "2", "--r", "2", "--k", "1", "--m-max", "3",
        "--steps", "150", "--ci-halfwidth", "0.05",
    )

    def test_sweep_reports_ci_rounds_and_convergence(self, capsys):
        out = run_cli(capsys, *self.SWEEP)
        assert "Adaptive blocking sweep" in out
        assert "CI95" in out and "rounds" in out and "converged" in out
        assert "events:" in out

    def test_sweep_kernel_flag_same_numbers(self, capsys):
        """The process routing kernel never changes the adaptive numbers."""
        from repro.multistage.routing import routing_kernel

        default = run_cli(capsys, *self.SWEEP)
        with routing_kernel("reference"):
            assert run_cli(capsys, *self.SWEEP) == default

    def test_sweep_resume_is_bit_identical(self, capsys, tmp_path):
        cold = run_cli(capsys, *self.SWEEP)
        args = (*self.SWEEP, "--resume", "--cache-dir", str(tmp_path))
        first = run_cli(capsys, *args)
        warm = run_cli(capsys, *args)
        table = lambda out: out.split("events:")[0]  # noqa: E731
        assert table(first) == table(cold)
        assert table(warm) == table(cold)
        assert "0 stored" in warm  # everything replayed from the cache

    def test_sweep_unconverged_cells_warn(self, capsys):
        out = run_cli(
            capsys, "sweep", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "1", "--steps", "100", "--ci-halfwidth", "0.0001",
            "--max-rounds", "2",
        )
        assert "NO" in out and "warning:" in out


class TestTraceCommand:
    def _records(self, out):
        import json

        return [json.loads(line) for line in out.strip().splitlines()]

    def test_trace_fig10_emits_schema_valid_jsonl(self, capsys):
        from repro.obs.trace import validate_record

        records = self._records(run_cli(capsys, "trace", "fig10"))
        for record in records:
            validate_record(record)
        summary = records[-1]
        assert summary["event"] == "summary"
        assert sum(summary["causes"].values()) == summary["blocked"] == 1
        kinds = [r["cause"]["kind"] for r in records if r["event"] == "block"]
        assert kinds == ["full_middles"]

    def test_trace_blocking_sums_to_numerator(self, capsys):
        from repro.obs.trace import validate_record

        records = self._records(run_cli(
            capsys, "trace", "blocking", "--n", "2", "--r", "2", "--m", "2",
            "--k", "1", "--steps", "150", "--seeds", "0,1",
        ))
        for record in records:
            validate_record(record)
        summary = records[-1]
        blocks = [r for r in records if r["event"] == "block"]
        assert summary["blocked"] == len(blocks) > 0
        assert sum(summary["causes"].values()) == summary["blocked"]
        # The trace numerator is the estimate's numerator.
        from repro import api

        estimate = api.blocking(
            2, 2, 2, 1, x=1, traffic=api.UniformConfig(steps=150, seeds=(0, 1)))
        assert summary["blocked"] == estimate.blocked
        assert summary["attempts"] == estimate.attempts

    def test_trace_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        out = run_cli(capsys, "trace", "fig10", "--trace-out", str(path))
        assert "trace written to" in out
        assert len(path.read_text().splitlines()) >= 2

    def test_design(self, capsys):
        out = run_cli(capsys, "design", "--n-ports", "64", "--k", "2")
        assert "crosspoints" in out and "recursive" in out.lower()

    def test_design_with_model(self, capsys):
        out = run_cli(
            capsys, "design", "--n-ports", "64", "--k", "2", "--model", "maw"
        )
        assert "MAW" in out

    def test_kernels_matrix(self, capsys, monkeypatch):
        from repro.engine.backends import BACKEND_ENV
        from repro.engine.planes import WORD_BITS

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        out = run_cli(capsys, "kernels")
        assert "lockstep replay on the auto backend" in out
        assert "serial routes (exact, adversary): bitmask, reference" in out
        assert "batched" not in out
        for backend in ("python", "numba"):
            assert backend in out
        assert f"plane width: W = ceil(max(m, r, k) / {WORD_BITS})" in out
        assert "active routing kernel: bitmask" in out
        assert f"{BACKEND_ENV}: (unset)" in out
        assert "backend status:" in out
        assert "python: available" in out

    def test_kernels_reports_env_override(self, capsys, monkeypatch):
        from repro.engine.backends import BACKEND_ENV

        monkeypatch.setenv(BACKEND_ENV, "python")
        out = run_cli(capsys, "kernels")
        assert f"{BACKEND_ENV}=python" in out
        assert "auto backend resolves to: python" in out

    def test_kernels_shows_missing_backend_reason(self, capsys, monkeypatch):
        from repro.engine import backends as mod

        monkeypatch.setitem(
            mod._SPECS, "numba",
            mod.BackendSpec(
                factory=mod._SPECS["numba"].factory,
                missing=lambda: "numba is not installed",
            ),
        )
        out = run_cli(capsys, "kernels")
        assert "numba: unavailable (numba is not installed)" in out

    def test_kernels_shows_installed_backend_width(self, capsys, monkeypatch):
        from repro.engine import backends as mod

        monkeypatch.setitem(
            mod._SPECS, "numba",
            mod.BackendSpec(
                factory=mod._SPECS["numba"].factory,
                missing=lambda: None,
            ),
        )
        out = run_cli(capsys, "kernels")
        assert "numba: available (plane width: any)" in out

    def test_kernels_shows_width_capped_backend(self, capsys, monkeypatch):
        from repro.engine import backends as mod

        monkeypatch.setitem(
            mod._SPECS, "test-cuda",
            mod.BackendSpec(
                factory=mod._SPECS["python"].factory,
                missing=lambda: None,
                max_plane_width=1,
            ),
        )
        out = run_cli(capsys, "kernels")
        assert "test-cuda: available (max plane width: 1 word)" in out


class TestParser:
    def test_unknown_model_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["design", "--model", "bogus"])

    def test_retired_execution_flags_rejected(self, capsys):
        """``--kernel``/``--batch``/``--backend`` are gone: one route."""
        parser = build_parser()
        for flag, value in (
            ("--kernel", "batched"), ("--batch", "2"), ("--backend", "python"),
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(["blocking", flag, value])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_construction_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table2", "--construction", "bogus"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestNewCommands:
    def test_gap(self, capsys):
        out = run_cli(capsys, "gap")
        assert "BLOCKED" in out and "corrected" in out

    def test_exact(self, capsys):
        out = run_cli(capsys, "exact", "--n", "2", "--r", "2", "--k", "1")
        assert "exact strict-sense threshold: m = 3" in out

    def test_exact_rearrangeable(self, capsys):
        out = run_cli(
            capsys, "exact", "--n", "2", "--r", "2", "--k", "1", "--rearrangeable"
        )
        assert "rearrangeable threshold" in out

    def test_load(self, capsys):
        out = run_cli(
            capsys, "load", "--n", "2", "--r", "2", "--m", "3", "--k", "1",
            "--loads", "1,4", "--arrivals", "200", "--model", "msw",
        )
        assert "P(fabric loss)" in out

    def test_report_fast(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        out = run_cli(
            capsys, "report", "--fast", "--n-ports", "64", "--k", "2",
            "--output", str(target),
        )
        assert "report written" in out
        assert "# WDM multicast reproduction report" in target.read_text()


class TestWorkloadCommands:
    def test_workloads_matrix(self, capsys):
        out = run_cli(capsys, "workloads")
        assert "Registered traffic workloads" in out
        for name in ("uniform", "hotspot", "heavytail_fanout",
                     "poisson_erlang", "trace"):
            assert name in out
        assert "zipf_s=1.2" in out
        assert "no (fixed recording)" in out

    def test_blocking_with_workload_flag(self, capsys):
        base = run_cli(capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
                       "--m-max", "2")
        skewed = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--workload", "hotspot",
            "--workload-param", "zipf_s=2.0",
        )
        assert "uniform traffic" in base
        assert "hotspot traffic" in skewed
        assert base != skewed

    def test_sweep_with_workload_flag(self, capsys):
        out = run_cli(
            capsys, "sweep", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--steps", "150", "--ci-halfwidth", "0.05",
            "--max-rounds", "3", "--workload", "heavytail_fanout",
        )
        assert "heavytail_fanout traffic" in out

    def test_trace_gen_round_trips_through_blocking(self, capsys, tmp_path):
        target = tmp_path / "burst.jsonl"
        out = run_cli(
            capsys, "trace-gen", "--out", str(target), "--workload",
            "hotspot", "--workload-param", "zipf_s=1.5",
            "--n", "2", "--r", "2", "--k", "1", "--steps", "200",
        )
        assert "trace written" in out and target.exists()
        replay = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--workload", "trace",
            "--workload-param", f"path={target}",
        )
        assert "trace traffic" in replay

    def test_unknown_workload_rejected_listing_models(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--workload", "bogus"])
        message = capsys.readouterr().err
        assert "unknown workload 'bogus'" in message
        for name in ("uniform", "hotspot", "heavytail_fanout",
                     "poisson_erlang", "trace"):
            assert name in message

    def test_unknown_workload_param_rejected_listing_fields(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["blocking", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--workload", "hotspot",
                  "--workload-param", "gamma=3"])
        assert "no parameter 'gamma'" in str(excinfo.value)
        assert "zipf_s" in str(excinfo.value)

    def test_malformed_workload_param_rejected(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--workload-param", "zipf_s"])
        assert "key=value" in capsys.readouterr().err

    def test_adaptive_sweep_over_trace_rejected_cleanly(self, tmp_path):
        target = tmp_path / "fixed.jsonl"
        generate_trace(
            api.make_workload("uniform"), str(target),
            MulticastModel.MSW, 4, 1, steps=40, seed=0,
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--ci-halfwidth", "0.05",
                  "--workload", "trace",
                  "--workload-param", f"path={target}"])
        message = str(excinfo.value)
        assert message.startswith("wdm-repro: error:")
        assert "40 events" in message


class TestFabricCommands:
    def test_fabrics_matrix_lists_registry(self, capsys):
        out = run_cli(capsys, "fabrics")
        assert "Fabric models x batch state backends" in out
        for name in ("clos", "crossbar", "awg_clos"):
            assert name in out
        assert "n/a (no replay)" in out
        assert "--fabric NAME" in out

    def test_blocking_crossbar_blocks_nothing(self, capsys):
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "2",
            "--m-max", "3", "--fabric", "crossbar",
        )
        assert "crossbar fabric" in out
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] in {"1", "2", "3"}:
                assert cells[2] == "0"

    def test_blocking_awg_blocks_at_least_clos(self, capsys):
        def blocked_column(out):
            rows = {}
            for line in out.splitlines():
                cells = line.split()
                if cells and cells[0] in {"1", "2", "3"}:
                    rows[int(cells[0])] = int(cells[2])
            return rows

        base = ["blocking", "--n", "2", "--r", "2", "--k", "2", "--m-max", "3"]
        clos = blocked_column(run_cli(capsys, *base))
        awg = blocked_column(run_cli(capsys, *base, "--fabric", "awg_clos"))
        assert set(clos) == set(awg) == {1, 2, 3}
        assert all(awg[m] >= clos[m] for m in clos)

    def test_sweep_accepts_fabric(self, capsys):
        out = run_cli(
            capsys, "sweep", "--n", "2", "--r", "2", "--k", "2",
            "--m-max", "2", "--steps", "150", "--max-rounds", "2",
            "--fabric", "awg_clos",
        )
        assert "awg_clos fabric" in out

    def test_unknown_fabric_rejected_listing_registry(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--fabric", "bogus"])
        message = capsys.readouterr().err
        assert "unknown fabric 'bogus'" in message
        for name in ("awg_clos", "clos", "crossbar"):
            assert name in message

    def test_adversarial_non_clos_rejected(self):
        with pytest.raises(ValueError, match="Clos fabric only"):
            main(["blocking", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--adversarial",
                  "--fabric", "awg_clos"])
