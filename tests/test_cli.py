"""End-to-end tests for the command-line front end.

Oracles: a hand-enumerated ensemble for (k=2, N=5), the hand-reduced
normalizing constant 96/35 for (k=2, N=10), the classical density value
rho(2) = 1 - ln 2, direct recomputation of region labels, and byte
comparison of re-emitted artifacts for the reproducibility guarantee.
"""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kfree
from kfree import _threads, ensemble
from kfree.cli import argv_of, build_parser, run
from kfree.errors import DomainError
from kfree.smoothsum import error_region
from oracles import recursive_enumeration

# Hand enumeration: squarefree integers whose prime factors are at most 5.
SQUAREFREE_5_SMOOTH = [1, 2, 3, 5, 6, 10, 15, 30]

# Z(2, 1, 10) = (1 + 1/2)(1 + 1/3)(1 + 1/5)(1 + 1/7) = 96/35 by hand.
PARTITION_2_1_10 = 96.0 / 35.0

ROOT = Path(__file__).resolve().parents[1]


def invoke(argv, tmp_path, name="out.json"):
    """Run the CLI writing to a temp file; return (exit code, parsed text)."""
    path = tmp_path / name
    code = run([*argv, "--output", str(path)])
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    return code, text


def invoke_json(argv, tmp_path, name="out.json"):
    code, text = invoke(argv, tmp_path, name)
    return code, (json.loads(text) if text else None)


class TestNamedExamples:
    def test_enumerate_squarefree_five_smooth(self, tmp_path):
        code, doc = invoke_json(["enumerate", "--k", "2", "--N", "5"], tmp_path)
        assert code == 0
        assert doc["result"]["elements"] == SQUAREFREE_5_SMOOTH
        assert doc["result"]["count"] == 8

    def test_enumerate_matches_recursive_oracle(self, tmp_path):
        want = [value for value, _ in recursive_enumeration(ensemble.EnsembleConfig(k=3, alpha=1.0, N=7))]
        code, doc = invoke_json(["enumerate", "--k", "3", "--N", "7"], tmp_path)
        assert code == 0
        assert doc["result"]["elements"] == want

    def test_charfn_at_zero_is_one(self, tmp_path):
        argv = ["charfn", "--k", "2", "--alpha", "1", "--N", "10", "--lambda", "0"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        value = doc["result"]["value"]
        assert abs(value["re"] - 1.0) <= 1e-13
        assert abs(value["im"]) <= 1e-13

    def test_charfn_fast_path_at_k_five(self, tmp_path):
        # N > 10^4 takes FastCharfn, which serves every k >= 2
        argv = ["charfn", "--k", "5", "--alpha", "1", "--N", "100000", "--lambda", "3"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        value = complex(doc["result"]["value"]["re"], doc["result"]["value"]["im"])
        exact = kfree.CharfnEvaluator(kfree.EnsembleConfig(k=5, alpha=1.0, N=100000)).grid([3.0])[0]
        assert abs(value / exact - 1.0) <= 1e-10

    def test_example_chain_passes(self, tmp_path):
        code, doc = invoke_json(["example", "--r", "5", "--M", "1000"], tmp_path)
        assert code == 0
        report = doc["result"]["report"]
        assert report["passed"] is True
        assert report["midpoint_sum"] == pytest.approx(0.23821680383626, abs=1e-9)

    def test_partition_matches_hand_product(self, tmp_path):
        code, doc = invoke_json(["partition", "--k", "2", "--alpha", "1", "--N", "10"], tmp_path)
        assert code == 0
        value = doc["result"]["value"]
        assert value["re"] == pytest.approx(PARTITION_2_1_10, abs=1e-14)
        assert value["im"] == pytest.approx(0.0, abs=1e-14)


class TestOneParser:
    """``run`` parses every argv with one parser per process; ``build_parser`` stays fresh."""

    ARGV = ["partition", "--k", "2", "--alpha", "1", "--N", "10"]

    def test_same_argv_twice_gives_identical_artifacts(self, tmp_path):
        path = tmp_path / "out.json"
        artifacts = []
        for _ in range(2):
            assert run([*self.ARGV, "--output", str(path)]) == 0
            artifacts.append(path.read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_usage_error_then_good_run(self, tmp_path, capsys):
        assert run(["partition", "--k", "two", "--N", "10"]) == 2
        assert "--k" in capsys.readouterr().err
        code, doc = invoke_json(self.ARGV, tmp_path)
        assert code == 0 and doc["result"]["value"]["re"] == pytest.approx(PARTITION_2_1_10, abs=1e-14)

    def test_mutating_a_built_parser_does_not_reach_run(self, tmp_path):
        parser = build_parser()
        assert build_parser() is not parser
        subparsers = next(a for a in parser._actions if a.choices is not None and "partition" in a.choices)
        subparsers.choices["partition"].set_defaults(alpha_im=1.0)
        parser.add_argument("--extra", required=True)
        code, doc = invoke_json(self.ARGV, tmp_path)
        assert code == 0 and doc["run_config"]["alpha_im"] == 0.0
        assert doc["result"]["value"]["re"] == pytest.approx(PARTITION_2_1_10, abs=1e-14)


class TestArtifactShape:
    def test_top_level_keys_and_version(self, tmp_path):
        code, doc = invoke_json(["partition", "--k", "2", "--N", "10"], tmp_path)
        assert code == 0
        assert sorted(doc) == ["result", "run_config", "version"]
        assert doc["version"] == kfree.__version__
        assert doc["run_config"]["command"] == "partition"
        assert doc["run_config"]["format"] == "json"

    def test_constant_report_serialized(self, tmp_path):
        argv = ["constant", "--k", "2", "--alpha-re", "1", "--N-list", "1000,10000,100000"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        report = doc["result"]["report"]
        assert report["value"]["re"] == pytest.approx(1.0830924965, abs=1e-6)
        assert report["supported"]
        assert doc["run_config"]["N_list"] == [1000, 10000, 100000]

    def test_sum_routes_agree(self, tmp_path):
        base = ["sum", "--k", "2", "--N", "30", "--alpha-re", "1"]
        code_d, doc_d = invoke_json([*base, "--route", "direct"], tmp_path, "d.json")
        code_s, doc_s = invoke_json([*base, "--route", "spectral"], tmp_path, "s.json")
        assert code_d == 0 and code_s == 0
        direct = doc_d["result"]["value"]
        spectral = doc_s["result"]["value"]
        assert abs(complex(direct["re"], direct["im"]) - complex(spectral["re"], spectral["im"])) < 1e-9
        assert doc_s["result"]["declared_tolerance"] > 0.0
        assert (doc_s["result"]["panel_width"], doc_s["result"]["rho"]) == (4.0, 1.5 + math.sqrt(3.25))

    def test_asymptotic_route_embeds_report(self, tmp_path):
        argv = ["sum", "--k", "2", "--N", "30", "--route", "asymptotic"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        report = doc["result"]["report"]
        assert report["N"] == 30
        assert set(report["ratios"]) == {"direct_over_spectral", "spectral_over_asymptotic"}

    def test_limit_charfn_grid_rows(self, tmp_path):
        argv = ["limit-charfn", "--alpha-re", "1", "--lambda-grid", "0", "2", "5"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        rows = doc["result"]["rows"]
        assert len(rows) == 5
        assert rows[0]["lambda"] == 0.0
        assert rows[0]["re"] == pytest.approx(1.0, abs=1e-12)


class TestRoundTrip:
    CASES = [
        ["enumerate", "--k", "2", "--N", "5"],
        ["partition", "--k", "2", "--alpha-re", "0.5", "--alpha-im", "0.25", "--N", "13"],
        ["constant", "--k", "2", "--N-list", "1000,10000,100000"],
        ["charfn", "--k", "2", "--alpha-re", "0.5", "--N", "100", "--lambda-grid", "0", "2", "4"],
        ["limit-charfn", "--alpha-re", "1", "--lambda", "0.5", "--lambda", "1"],
        ["dickman", "--alpha", "1", "--u-max", "3", "--points", "7"],
        ["sum", "--k", "2", "--N", "30", "--R-rule", "power", "--tau", "0.3"],
        ["compare", "--k", "2", "--N", "10"],
        ["regions", "--tau-grid", "0.1", "0.9", "3", "--eta-list", "1.5,2.5", "--delta", "0.25"],
        ["example", "--r", "4", "--M", "60"],
        ["appendix", "--k", "2", "--term", "2,1,1", "--N-list", "1000,10000", "--lambda", "1"],
        pytest.param(
            ["charfn", "--k", "2", "--alpha-re", "0.75", "--alpha-im", "-0.5", "--N", "20",
             "--lambda", "1.5"],
            id="charfn-alpha-im",
        ),
        pytest.param(
            # repr writes these in exponent form; argv_of joins them to their flags by "="
            ["charfn", "--k", "2", "--alpha-re=-1e-05", "--N", "13", "--lambda=-1e-05",
             "--lambda", "2"],
            id="charfn-negative-exponent-form",
        ),
        pytest.param(
            ["sum", "--k", "2", "--N", "30", "--cutoff", "bump", "--R-rule", "fixed", "--R", "6.5",
             "--tol", "1e-8"],
            id="sum-fixed-radius-tol",
        ),
        pytest.param(
            ["sum", "--k", "2", "--alpha", "0.5", "--N", "30", "--cutoff", "indicator",
             "--route", "direct"],
            id="sum-direct",
        ),
        pytest.param(
            ["compare", "--k", "2", "--N", "13", "--cutoff", "bump", "--R-rule", "fixed",
             "--R", "40", "--tol", "1e-8"],
            id="compare-cutoff-tol",
        ),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: argv[0])
    def test_reemitted_config_reproduces_bytes(self, argv, tmp_path):
        path = tmp_path / "first.json"
        first_code = run([*argv, "--output", str(path)])
        assert first_code in (0, 3)
        first = path.read_bytes()
        config = json.loads(first.decode("utf-8"))["run_config"]
        replay = argv_of(config)
        assert run(replay) == first_code
        assert path.read_bytes() == first

    # one case for each CSV layout besides charfn's, which test_csv_round_trip covers
    CSV_CASES = [
        ["enumerate", "--k", "3", "--N", "7", "--cap", "100"],
        ["limit-charfn", "--alpha-re", "0.5", "--alpha-im", "0.25", "--lambda-grid", "0", "1", "3"],
        ["dickman", "--alpha", "0.5", "--u-max", "2", "--step", "0.0005", "--points", "5"],
        ["regions", "--tau-list", "0.2,0.6", "--eta-grid", "1.5", "3", "2"],
        ["appendix", "--k", "2", "--alpha-im", "0.25", "--term", "2,1,1",
         "--N-list", "1000,10000", "--lambda", "1"],
    ]

    @pytest.mark.parametrize("argv", CSV_CASES, ids=lambda argv: argv[0])
    def test_csv_layouts_round_trip(self, argv, tmp_path):
        path = tmp_path / "table.csv"
        assert run([*argv, "--format", "csv", "--output", str(path)]) == 0
        first = path.read_bytes()
        header = first.decode("utf-8").splitlines()[1]
        config = json.loads(header.removeprefix("# run-config: "))
        assert config["format"] == "csv"
        assert run(argv_of(config)) == 0
        assert path.read_bytes() == first

    def test_csv_round_trip(self, tmp_path):
        argv = [
            "charfn", "--k", "2", "--N", "50",
            "--lambda-grid", "0", "1", "3", "--format", "csv",
        ]
        path = tmp_path / "grid.csv"
        assert run([*argv, "--output", str(path)]) == 0
        first = path.read_bytes()
        header = first.decode("utf-8").splitlines()[1]
        config = json.loads(header.removeprefix("# run-config: "))
        assert run(argv_of(config)) == 0
        assert path.read_bytes() == first

    def test_argv_of_rejects_unknown_command(self):
        with pytest.raises(DomainError, match="unknown command"):
            argv_of({"command": "frobnicate"})


class TestCsvFormat:
    def test_charfn_columns(self, tmp_path):
        argv = [
            "charfn", "--k", "2", "--alpha-re", "1", "--N", "100",
            "--lambda-grid", "0", "2", "4", "--format", "csv",
        ]
        code, text = invoke(argv, tmp_path, "grid.csv")
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == f"# kfree-version: {kfree.__version__}"
        assert lines[1].startswith("# run-config: ")
        assert lines[2] == "lambda,re,im"
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 4
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-13)

    def test_cells_round_trip_binary64(self, tmp_path):
        argv = ["charfn", "--k", "2", "--N", "100", "--lambda", "1.7", "--format", "csv"]
        code, text = invoke(argv, tmp_path, "one.csv")
        assert code == 0
        _, re_cell, im_cell = text.splitlines()[-1].split(",")
        code, doc = invoke_json(
            ["charfn", "--k", "2", "--N", "100", "--lambda", "1.7"], tmp_path, "one.json"
        )
        assert float(re_cell) == doc["result"]["value"]["re"]
        assert float(im_cell) == doc["result"]["value"]["im"]

    def test_dickman_density_values(self, tmp_path):
        argv = ["dickman", "--alpha", "1", "--u-max", "4", "--points", "5", "--format", "csv"]
        code, text = invoke(argv, tmp_path, "rho.csv")
        assert code == 0
        lines = text.splitlines()
        assert lines[2] == "u,rho,w"
        table = {float(u): float(rho) for u, rho, _ in (line.split(",") for line in lines[3:])}
        assert table[0.0] == pytest.approx(1.0, abs=1e-12)
        assert table[2.0] == pytest.approx(1.0 - math.log(2.0), abs=1e-6)

    def test_dickman_u_max_between_grid_nodes(self, tmp_path):
        # 2.0004 rounds to the node 2.000 below it; the solved grid must
        # still reach the last sampled point
        argv = ["dickman", "--alpha", "1", "--u-max", "2.0004", "--points", "3"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        last = doc["result"]["rows"][-1]
        assert last["u"] == 2.0004
        assert last["rho"] == pytest.approx(1.0 - math.log(2.0004), abs=1e-6)

    def test_regions_rows_match_direct_evaluation(self, tmp_path):
        argv = [
            "regions", "--tau-list", "0.1,0.5,0.9", "--eta-list", "2,4",
            "--delta", "0.5", "--format", "csv",
        ]
        code, text = invoke(argv, tmp_path, "regions.csv")
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[3:]]
        assert len(rows) == 6
        for tau_cell, eta_cell, case in rows:
            assert case == error_region(float(tau_cell), float(eta_cell), 0.5)

    def test_appendix_rows_and_fit_comment(self, tmp_path):
        argv = [
            "appendix", "--k", "2", "--term", "2,1,1",
            "--N-list", "1000,10000", "--lambda", "1", "--format", "csv",
        ]
        code, text = invoke(argv, tmp_path, "scan.csv")
        assert code == 0
        lines = text.splitlines()
        assert any(line.startswith("# fit: model=") for line in lines)
        data = [line.split(",") for line in lines if line and not line.startswith("#")]
        assert data[0] == ["N", "lambda", "term", "magnitude"]
        assert [row[2] for row in data[1:]] == ["2-1-1", "2-1-1"]
        assert all(float(row[3]) > 0 for row in data[1:])

    def test_csv_unavailable_for_scalar_commands(self, tmp_path):
        code, _ = invoke(["partition", "--k", "2", "--N", "10", "--format", "csv"], tmp_path)
        assert code == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv,status",
        [
            (["sum", "--k", "2", "--alpha", "1e6", "--N", "100000", "--route", "spectral"], 2),
            (["partition", "--k", "2", "--alpha", "1e6", "--N", "100000"], 3),
        ],
        ids=["sum-spectral", "partition"],
    )
    def test_overflowing_z_prints_only_its_error(self, argv, status):
        # Z overflows binary64 at alpha = 10^6: the run ends with kfree's one error line on stderr, and no
        # numpy warning before it
        code = "import sys; sys.path.insert(0, sys.argv[1]); from kfree.cli import run; sys.exit(run(sys.argv[2:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src"), *argv], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == status
        assert proc.stderr.startswith("kfree: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_unknown_subcommand_usage(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert run(["charfn", "--N", "10", "--lambda", "1"]) == 2
        capsys.readouterr()

    def test_charfn_without_frequency(self, capsys):
        assert run(["charfn", "--k", "2", "--N", "10"]) == 2
        assert "--lambda" in capsys.readouterr().err

    def test_alpha_alias_conflicts_with_alpha_re(self, capsys):
        argv = ["partition", "--k", "2", "--N", "10", "--alpha", "1", "--alpha-re", "1"]
        assert run(argv) == 2
        capsys.readouterr()

    def test_lambda_conflicts_with_grid(self, capsys):
        argv = [
            "charfn", "--k", "2", "--N", "10",
            "--lambda", "1", "--lambda-grid", "0", "1", "3",
        ]
        assert run(argv) == 2
        capsys.readouterr()

    def test_unknown_cutoff_is_domain_error(self, capsys):
        assert run(["sum", "--k", "2", "--N", "10", "--cutoff", "nope"]) == 2
        assert "unknown cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["sum", "--N", "30", "--cutoff", "gaussian", "--R-rule", "fixed", "--R=-5"], "R must be positive"),
            (["compare", "--N", "30", "--R-rule", "fixed", "--R=-5"], "R must be positive"),
            (["sum", "--N", "100000", "--cutoff", "bump", "--route", "asymptotic", "--R-rule", "fixed", "--R=0"], "0 < R"),
            (["sum", "--N", "100000", "--cutoff", "bump", "--route", "asymptotic", "--R-rule", "fixed", "--R=-1"], "0 < R"),
            (["sum", "--N", "30", "--tol=-1"], "tol must be positive"),
        ],
    )
    def test_nonpositive_radius_or_tolerance_is_domain_error(self, flags, needle, capsys):
        # a negative R flipped the sign of the spectral and asymptotic values,
        # R = 0 divided by zero and tol < 0 ran the tail search into exit 3
        assert run([flags[0], "--k", "2", *flags[1:]]) == 2
        assert needle in capsys.readouterr().err

    def test_dickman_rejects_complex_weight(self, capsys):
        assert run(["dickman", "--alpha-re", "1", "--alpha-im", "0.5"]) == 2
        assert "real" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-0.001"])
    def test_dickman_rejects_nonpositive_step(self, step, capsys):
        assert run(["dickman", "--alpha", "1", "--step", step]) == 2
        assert "step must be in (0, 1e-3]" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--step", "1e-300"], ["--u-max", "1e9"], ["--u-max", "4200"]])
    def test_dickman_grid_cap_refusal(self, flags, capsys):
        # refused before the grid (or the H(alpha) sieve) is allocated
        tracemalloc.start()
        try:
            code = run(["dickman", "--alpha", "1", *flags])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 2**20
        assert "grid cap" in capsys.readouterr().err

    def test_enumeration_cap_refusal(self, capsys):
        assert run(["enumerate", "--k", "2", "--N", "5", "--cap", "4"]) == 4
        # refused before any element list is built: the 2^17 values would take megabytes
        tracemalloc.start()
        try:
            code = run(["enumerate", "--k", "2", "--N", "60", "--cap", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 2**20
        assert "size cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["compare"], ["sum", "--route", "direct"]])
    def test_default_cap_refuses_what_memory_cannot_hold(self, command, capsys):
        # One cap, sized to memory: at about 104 bytes an element, the
        # 2^26 = k^pi(101) elements of k = 2, N = 101 would take 7 GB.
        assert ensemble.ENUMERATION_CAP == 1 << 22
        assert build_parser().parse_args(["enumerate", "--k", "2", "--N", "5"]).cap == ensemble.ENUMERATION_CAP
        tracemalloc.start()
        try:
            code = run([*command, "--k", "2", "--N", "101"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 2**20
        assert "size cap" in capsys.readouterr().err

    def test_failed_chain_exits_three(self, tmp_path, capsys):
        code, doc = invoke_json(["example", "--r", "5", "--M", "40"], tmp_path)
        assert code == 3
        assert doc["result"]["report"]["passed"] is False
        assert "chain" in capsys.readouterr().err

    def test_compare_disagreement_exits_three(self, tmp_path, capsys, monkeypatch):
        import kfree.cli as cli_module

        real = cli_module.smooth_sum_direct
        monkeypatch.setattr(
            cli_module, "smooth_sum_direct", lambda cfg, f: real(cfg, f) + 1.0
        )
        code, doc = invoke_json(["compare", "--k", "2", "--N", "10"], tmp_path)
        assert code == 3
        assert doc["result"]["agree"] is False
        assert doc["result"]["difference"] > doc["result"]["declared_tolerance"]
        assert "disagree" in capsys.readouterr().err

    def test_compare_agreement_exits_zero(self, tmp_path):
        code, doc = invoke_json(["compare", "--k", "2", "--N", "13"], tmp_path)
        assert code == 0
        assert doc["result"]["agree"] is True
        assert doc["result"]["difference"] <= doc["result"]["declared_tolerance"]
        # the panel layout the Gauss remainder bound chose is in the artifact
        assert (doc["result"]["panel_width"], doc["result"]["rho"]) == (4.0, 1.5 + math.sqrt(3.25))
        # real alpha and an even cutoff: the +-lambda pairs make the spectral value exactly real
        assert doc["result"]["spectral"]["im"] == 0.0

    def test_unwritable_output_path(self, capsys):
        argv = ["partition", "--k", "2", "--N", "10", "--output", "/nonexistent-dir/x.json"]
        assert run(argv) == 2
        capsys.readouterr()

    def test_bad_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KFREE_THREADS", "abc")
        assert run(["partition", "--k", "2", "--N", "10"]) == 2
        assert "KFREE_THREADS" in capsys.readouterr().err

    def test_nonpositive_threads_flag(self, capsys):
        assert run(["partition", "--k", "2", "--N", "10", "--threads", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["constant", "--k", "2", "--N-list", "inf,1e4,1e5"], "--N-list"),
            (["charfn", "--k", "2", "--N", "10", "--lambda-grid", "0", "1", "nan"], "--lambda-grid"),
            (["sum", "--k", "2", "--N", "30", "--R", "nan"], "--R"),
            (["partition", "--k", "2", "--N", "10", "--alpha", "nan"], "--alpha"),
            (["regions", "--tau-list", "0.5,nan", "--eta-list", "2"], "--tau-list"),
        ],
        ids=["constant", "charfn", "sum", "partition", "regions"],
    )
    def test_non_finite_number_is_usage_error(self, argv, flag, tmp_path, capsys):
        assert invoke(argv, tmp_path) == (2, "")
        assert f"{flag} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["constant", "--k", "2", "--N-list", "1.5,10,100"], "--N-list"),
            (["constant", "--k", "2", "--N-list", "inf,1e4,1e5"], "--N-list"),
            (["appendix", "--k", "2", "--term", "2,1.5,1", "--N-list", "1000", "--lambda", "1"], "--term"),
            (["regions", "--tau-list", ",", "--eta-list", "2"], "--tau-list"),
            (["regions", "--tau-list", "0.5", "--eta-list", "2,x"], "--eta-list"),
            (["charfn", "--k", "2", "--N", "10", "--lambda-grid", "0", "1", "1.5"], "--lambda-grid"),
            (["regions", "--tau-grid", "0", "1", "1", "--eta-list", "2"], "--tau-grid"),
        ],
        ids=["N-list-fraction", "N-list-inf", "term", "tau-list-empty", "eta-list-word", "lambda-grid", "tau-grid"],
    )
    def test_malformed_list_or_grid_is_usage_error(self, argv, flag, capsys):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: kfree ") and f"argument {flag}: " in err

    def test_grid_overflowing_to_infinity_is_domain_error(self, tmp_path, capsys):
        # finite ends whose span overflows; written out in digits, because
        # argparse reads "-1e308" as an option rather than a negative number
        argv = ["limit-charfn", "--lambda-grid", "-1" + "0" * 308, "1e308", "3"]
        assert invoke(argv, tmp_path) == (2, "")
        assert "--lambda-grid" in capsys.readouterr().err

    def test_repeated_n_in_constant_ladder_is_domain_error(self, tmp_path, capsys):
        argv = ["constant", "--k", "2", "--N-list", "10000,10000,100000"]
        assert invoke(argv, tmp_path) == (2, "")
        assert "repeated: 10000" in capsys.readouterr().err

    def test_internal_key_error_propagates(self, monkeypatch):
        # a KeyError inside a handler is a bug, not a usage error: no exit 2
        import kfree.cli as cli_module

        def broken(config):
            raise KeyError("internal")

        monkeypatch.setitem(cli_module._HANDLERS, "partition", broken)
        with pytest.raises(KeyError, match="internal"):
            run(["partition", "--k", "2", "--N", "10"])


class TestCappedInputs:
    """Inputs that once allocated terabytes or crashed, each run in a child capped by ``capped_run``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sum", "--k", "2", "--N", "30", "--R", "1e15"],
            ["dickman", "--alpha", "1", "--points", "1000000000000"],
            ["example", "--M", "1000000000000"],
            ["example", "--r", "1e6"],
        ],
        ids=["R", "points", "M", "r"],
    )
    def test_grid_past_the_node_cap_is_refused(self, argv, capped_run):
        code, err = capped_run(argv)
        assert code == 4, err
        assert "grid cap" in err

    def test_grid_count_past_the_node_cap_is_usage_error(self, capped_run):
        code, err = capped_run(["charfn", "--k", "2", "--N", "30", "--lambda-grid", "0", "1", "1e12"])
        assert code == 2, err
        assert "argument --lambda-grid: COUNT must be at most" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_is_refused(self, fmt, capped_run):
        # FastCharfn's phases at lambda = 1e15 give -inf and NaN, which no artifact may carry
        code, err = capped_run(["charfn", "--k", "2", "--N", "1000000", "--lambda", "1e15", "--format", fmt])
        assert code == 3, err
        assert "tolerance failure: the result holds" in err

    def test_overflowing_alpha_is_named_before_the_cutoff(self, capped_run):
        # Z(2, 10^6, 10^6), the spectral route's bound on |Z phi_N|, overflows: alpha is the cause
        code, err = capped_run(["sum", "--k", "2", "--N", "1000000", "--alpha", "1e6", "--cutoff", "bump"])
        assert code == 2, err
        assert "alpha = (1000000+0j) is too large" in err and "cutoff" not in err

    @pytest.mark.parametrize(
        "alpha, N", [(1.0, 10005), (1.0, 10007), (1.0, 10009), (1e6, 20000)], ids=["0", "1", "2", "alpha1e6"]
    )
    def test_charfn_with_a_thin_fast_tail(self, alpha, N, capped_run, tmp_path):
        # each id counts the primes past max(10^4, threshold_prime): too few for FastCharfn's buckets
        path = tmp_path / "out.json"
        argv = ["charfn", "--k", "2", "--alpha", repr(alpha), "--N", str(N), "--lambda-grid", "-300", "300", "61"]
        code, err = capped_run([*argv, "--output", str(path)])
        assert code == 0, err
        rows = json.loads(path.read_text(encoding="utf-8"))["result"]["rows"]
        got = np.array([complex(row["re"], row["im"]) for row in rows])
        exact = kfree.CharfnEvaluator(kfree.EnsembleConfig(k=2, alpha=alpha, N=N)).grid([row["lambda"] for row in rows])
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0)


class TestNegativeExponentForm:
    """A negative number in exponent form typed after its flag is a value."""

    def test_alpha_after_its_flag(self, tmp_path):
        code, spaced = invoke(["limit-charfn", "--alpha-re", "-1e-1", "--lambda", "1"], tmp_path)
        assert code == 0
        for alpha in (["--alpha-re", "-0.1"], ["--alpha-re=-1e-1"]):
            assert invoke(["limit-charfn", *alpha, "--lambda", "1"], tmp_path) == (0, spaced)

    @pytest.mark.parametrize("start,decimal", [("-1e-1", "-0.1"), ("-1E+2", "-100"), ("-.5e3", "-500")])
    def test_lambda_grid_start(self, start, decimal, tmp_path):
        code, text = invoke(["limit-charfn", "--lambda-grid", start, "1", "3"], tmp_path)
        assert code == 0
        assert invoke(["limit-charfn", "--lambda-grid", decimal, "1", "3"], tmp_path) == (0, text)


class TestTruncationRules:
    def test_fixed_radius(self, tmp_path):
        argv = ["sum", "--k", "2", "--N", "30", "--R-rule", "fixed", "--R", "6"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        assert doc["result"]["R"] == 6.0

    def test_log_over_loglog_radius(self, tmp_path):
        argv = ["sum", "--k", "2", "--N", "10000", "--R-rule", "logN/loglogN"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        log_n = math.log(10000.0)
        assert doc["result"]["R"] == pytest.approx(log_n / math.log(log_n), rel=1e-12)

    def test_power_radius(self, tmp_path):
        argv = ["sum", "--k", "2", "--N", "10000", "--R-rule", "power", "--tau", "0.5"]
        code, doc = invoke_json(argv, tmp_path)
        assert code == 0
        assert doc["result"]["R"] == pytest.approx(math.sqrt(math.log(10000.0)), rel=1e-12)

    def test_fixed_rule_requires_radius(self, capsys):
        assert run(["sum", "--k", "2", "--N", "30", "--R-rule", "fixed"]) == 2
        assert "--R" in capsys.readouterr().err

    def test_power_rule_requires_tau(self, capsys):
        assert run(["sum", "--k", "2", "--N", "30", "--R-rule", "power"]) == 2
        assert "--tau" in capsys.readouterr().err


class TestThreads:
    def test_flag_recorded(self, tmp_path):
        code, doc = invoke_json(["partition", "--k", "2", "--N", "10", "--threads", "1"], tmp_path)
        assert code == 0
        assert doc["run_config"]["threads"] == 1

    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KFREE_THREADS", "3")
        code, doc = invoke_json(["partition", "--k", "2", "--N", "10"], tmp_path)
        assert code == 0
        assert doc["run_config"]["threads"] == 3

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KFREE_THREADS", "3")
        code, doc = invoke_json(["partition", "--k", "2", "--N", "10", "--threads", "1"], tmp_path)
        assert code == 0
        assert doc["run_config"]["threads"] == 1

    def test_unapplied_cap_reported_on_stderr(self, tmp_path, capsys, monkeypatch):
        # Without numpy's OpenBLAS the pool cannot be resized after numpy has
        # loaded: say so once, and write the same artifact as when it can.
        argv = ["partition", "--k", "2", "--N", "10", "--threads", "2"]
        monkeypatch.setattr(_threads, "_openblas", lambda: None)
        code, text = invoke(argv, tmp_path)
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("kfree: --threads 2 not applied: ")
        assert json.loads(text)["run_config"]["threads"] == 2
        monkeypatch.undo()
        assert invoke(argv, tmp_path) == (0, text)

    def test_applied_cap_is_silent(self, tmp_path, capsys, fake_blas):
        code, doc = invoke_json(["partition", "--k", "2", "--N", "10", "--threads", "2"], tmp_path)
        assert code == 0
        assert fake_blas["sets"] == [2, 4]  # the cap, then the pool it found
        assert capsys.readouterr().err == ""
        assert doc["run_config"]["threads"] == 2

    def test_cap_is_restored_when_the_run_ends(self, tmp_path, fake_blas):
        # the cap belongs to one run: an in-process caller's later runs start uncapped
        assert invoke(["partition", "--k", "2", "--N", "10", "--threads", "2"], tmp_path)[0] == 0
        assert fake_blas["sets"] == [2, 4] and _threads._cap is None
        # a run that fails after the cap is applied lifts it too
        assert invoke(["charfn", "--k", "2", "--N", "10", "--threads", "3"], tmp_path)[0] == 2
        assert fake_blas["sets"] == [2, 4, 3, 4] and _threads._cap is None
        assert invoke(["partition", "--k", "2", "--N", "10"], tmp_path)[0] == 0
        assert fake_blas["sets"] == [2, 4, 3, 4]

    def test_cap_reaches_the_grid_workers(self, tmp_path, monkeypatch, fake_blas):
        # FastCharfn.grid shares its panels among at most --threads workers
        counts = []
        map_blocks = ensemble.map_blocks

        def spy(task, size, block):
            counts.append(_threads.workers(-(-size // block)))
            map_blocks(task, size, block)

        monkeypatch.setattr(ensemble, "map_blocks", spy)
        argv = ["charfn", "--k", "2", "--N", "100000", "--lambda-grid", "-300", "300", "1025"]
        assert invoke([*argv, "--threads", "1"], tmp_path)[0] == 0
        assert invoke(argv, tmp_path)[0] == 0
        assert counts == [1, min(4, len(os.sched_getaffinity(0)))]

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--k", "2", "--alpha", "-1", "--N", "40", "--cutoff", "bump01"],
            ["sum", "--k", "2", "--alpha", "1", "--N", "1000000", "--route", "spectral", "--cutoff", "bump"],
            # the one form whose tables cross the gate of kfree.primes
            ["constant", "--k", "2", "--N-list", "1e5,1e6,1e8"],
        ],
        ids=["compare-exact", "sum-fast", "constant-1e8"],
    )
    def test_artifact_identical_at_any_blas_thread_count(self, argv):
        # the frequency sums run in a fixed order and FastCharfn on one BLAS
        # thread, so neither the BLAS pool size, fixed when numpy loads, nor
        # the worker cap can move a digit of the artifact
        code = "import sys; sys.path.insert(0, sys.argv[1]); from kfree.cli import run; sys.exit(run(sys.argv[2:]))"
        runs = (("1", []), ("2", []), ("2", ["--threads", "1"]), ("2", ["--threads", "2"]))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(ROOT / "src"), *argv, *cap],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**os.environ, "OPENBLAS_NUM_THREADS": blas},
            )
            for blas, cap in runs
        ]
        outputs = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]
        # a cap is recorded in the run configuration; every other byte agrees
        for out, cap in zip(outputs[2:], (b"1", b"2")):
            assert b'"threads": ' + cap in out
            assert out.replace(b'"threads": ' + cap, b'"threads": null') == outputs[1]


class TestHelp:
    def test_help_documents_csv_columns_and_exit_codes(self, tmp_path, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out
        assert "KFREE_THREADS" in out
        # each layout line of --help against the header its subcommand writes
        charfn = ["charfn", "--k", "2", "--N", "50", "--lambda-grid", "0", "1", "3"]
        for argv in [*TestRoundTrip.CSV_CASES, charfn]:
            code, text = invoke([*argv, "--format", "csv"], tmp_path, "table.csv")
            assert code == 0
            header = next(line for line in text.splitlines() if not line.startswith("#"))
            layout = rf"^  {re.escape(argv[0])} +{re.escape(header.replace(',', ', '))}( |$)"
            assert re.search(layout, out, re.MULTILINE), (argv[0], header)

    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert kfree.__version__ in capsys.readouterr().out
