"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main
from repro.dataflow.vecbitset import HAVE_NUMPY

from helpers import GET_COUNT_SOURCE


IFC_SOURCE = """
struct Password { value: u32 }
extern fn insecure_print(x: u32);

fn leak(p: &Password) {
    insecure_print(p.value);
}

fn fine(x: u32) {
    insecure_print(x);
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.mrs"
    path.write_text(GET_COUNT_SOURCE, encoding="utf-8")
    return str(path)


@pytest.fixture
def ifc_file(tmp_path):
    path = tmp_path / "ifc.mrs"
    path.write_text(IFC_SOURCE, encoding="utf-8")
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_parser_requires_a_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_mir_command_prints_blocks(source_file):
    code, output = run_cli("mir", source_file)
    assert code == 0
    assert "bb0:" in output
    assert "get_count" in output


def test_mir_command_with_function_filter(source_file):
    code, output = run_cli("mir", source_file, "--function", "get_count")
    assert code == 0
    assert output.count("fn get_count") == 1


def test_mir_command_unknown_function_is_an_error(source_file):
    code, output = run_cli("mir", source_file, "--function", "nope")
    assert code == 2
    assert "error" in output


def test_analyze_command_prints_theta_and_sizes(source_file):
    code, output = run_cli("analyze", source_file)
    assert code == 0
    assert "Θ(" in output
    assert "dependency-set sizes" in output
    assert "condition: Modular" in output


def test_analyze_command_honours_condition_flags(source_file):
    code, output = run_cli("analyze", source_file, "--mut-blind")
    assert code == 0
    assert "condition: Mut-blind" in output


def test_slice_command_backward(source_file):
    code, output = run_cli(
        "slice", source_file, "--function", "get_count", "--variable", "h"
    )
    assert code == 0
    assert "backward slice" in output
    assert "insert" in output


def test_slice_command_forward(source_file):
    code, output = run_cli(
        "slice", source_file, "--function", "get_count", "--variable", "k", "--forward"
    )
    assert code == 0
    assert "forward slice" in output


def test_stats_command_prints_substrate_table(source_file):
    code, output = run_cli("stats", source_file)
    assert code == 0
    assert "interned" in output or "places" in output
    assert "get_count" in output
    assert "// condition: Modular" in output


def test_stats_command_json_output(source_file):
    import json

    code, output = run_cli("stats", source_file, "--json", "--whole-program")
    assert code == 0
    data = json.loads(output)
    assert data["condition"] == "Whole-program"
    for row in data["functions"]:
        assert row["interned_places"] > 0
        assert row["interned_locations"] >= row["instructions"]
        assert row["fixpoint_iterations"] >= 1
        assert 0.0 <= row["exit_density"] <= 1.0


def test_stats_command_unknown_function_is_an_error(source_file):
    code, output = run_cli("stats", source_file, "--function", "nope")
    assert code == 2
    assert "error" in output


def test_stats_command_rejects_object_engine(source_file):
    code, output = run_cli("stats", source_file, "--engine", "object")
    assert code == 2
    assert "bitset" in output


def test_analyze_engine_flag_object_matches_bitset(source_file):
    code_obj, out_obj = run_cli("analyze", source_file, "--engine", "object")
    code_bit, out_bit = run_cli("analyze", source_file, "--engine", "bitset")
    assert code_obj == code_bit == 0
    assert out_obj == out_bit


def test_ifc_command_reports_violation_with_nonzero_exit(ifc_file):
    code, output = run_cli(
        "ifc", ifc_file, "--secret-type", "Password", "--sink", "insecure_print"
    )
    assert code == 1
    assert "leak" in output
    assert "insecure_print" in output


def test_ifc_command_clean_policy_exits_zero(ifc_file):
    code, output = run_cli("ifc", ifc_file, "--sink", "insecure_print")
    assert code == 0
    assert "no insecure flows" in output


def test_ifc_command_secret_variable_spec(ifc_file):
    code, output = run_cli(
        "ifc", ifc_file, "--secret-variable", "fine:x", "--sink", "insecure_print"
    )
    assert code == 1
    assert "fine" in output


def test_corpus_command_prints_table(tmp_path):
    code, output = run_cli("corpus", "--scale", "0.1")
    assert code == 0
    assert "Table 1" in output
    assert "rustpython" in output


def test_corpus_command_single_crate_source():
    code, output = run_cli("corpus", "--scale", "0.1", "--crate", "hyper")
    assert code == 0
    assert "crate hyper {" in output


def test_corpus_command_unknown_crate_errors():
    code, output = run_cli("corpus", "--scale", "0.1", "--crate", "nonexistent")
    assert code == 2
    assert "error" in output


def test_missing_file_is_a_clean_error():
    code, output = run_cli("mir", "/does/not/exist.mrs")
    assert code == 2
    assert "error" in output


def test_experiment_command_small_scale():
    code, output = run_cli("experiment", "--scale", "0.06")
    assert code == 0
    assert "measured vs paper" in output
    assert "crate boundary" in output


# ---------------------------------------------------------------------------
# --help / exit codes for every subcommand
# ---------------------------------------------------------------------------


ALL_SUBCOMMANDS = [
    "mir", "analyze", "slice", "focus", "stats", "ifc", "fuzz", "corpus",
    "experiment", "serve", "workspace", "version", "query", "trace", "metrics",
    "profile", "bench",
]


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    output = capsys.readouterr().out
    for name in ALL_SUBCOMMANDS:
        assert name in output


@pytest.mark.parametrize("name", [s for s in ALL_SUBCOMMANDS if s != "version"])
def test_subcommand_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([name, "--help"])
    assert excinfo.value.code == 0
    assert f"repro {name}" in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_serve_help_documents_the_concurrency_flags(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    output = capsys.readouterr().out
    for flag in ("--port", "--host", "--workers", "--persist-dir",
                 "--workspace", "--jsonrpc", "--cache-dir", "--input"):
        assert flag in output


def test_workspace_help_lists_actions(capsys):
    with pytest.raises(SystemExit):
        main(["workspace", "--help"])
    output = capsys.readouterr().out
    for action in ("save", "load", "list"):
        assert action in output


# ---------------------------------------------------------------------------
# version
# ---------------------------------------------------------------------------


def _pyproject_version():
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
        encoding="utf-8"
    )
    return re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE).group(1)


def test_version_subcommand_matches_pyproject():
    code, output = run_cli("version")
    assert code == 0
    assert output.strip() == f"repro-flowistry {_pyproject_version()}"


def test_version_flag_matches_pyproject(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert _pyproject_version() in capsys.readouterr().out


def test_dunder_version_matches_pyproject():
    import repro

    assert repro.__version__ == _pyproject_version()


# ---------------------------------------------------------------------------
# serve / workspace persistence round trips
# ---------------------------------------------------------------------------


def test_serve_with_input_file_and_persist_dir(tmp_path, source_file):
    import json

    requests = tmp_path / "requests.ndjson"
    requests.write_text(
        json.dumps({"id": 1, "method": "analyze", "params": {"function": "get_count"}})
        + "\n",
        encoding="utf-8",
    )
    persist = str(tmp_path / "persist")

    code, output = run_cli(
        "serve", source_file, "--input", str(requests), "--persist-dir", persist
    )
    assert code == 0
    first = json.loads(output.splitlines()[0])
    assert first["ok"]
    assert first["result"]["functions"]["get_count"]["cache"] == "miss"

    # Restarted server over the same persist dir: first answer is warm.
    code, output = run_cli(
        "serve", "--input", str(requests), "--persist-dir", persist
    )
    assert code == 0
    second = json.loads(output.splitlines()[0])
    assert second["result"]["functions"]["get_count"]["cache"] == "hit"


def test_workspace_save_load_list_round_trip(tmp_path, source_file):
    import json

    persist = str(tmp_path / "ws")
    code, output = run_cli(
        "workspace", "save", source_file, "--persist-dir", persist, "--warm"
    )
    assert code == 0
    summary = json.loads(output)
    assert summary["workspace"] == "default" and summary["cache_entries"] >= 1

    code, output = run_cli(
        "workspace", "load", "--persist-dir", persist, "--analyze"
    )
    assert code == 0
    report = json.loads(output)
    assert report["analyze"]["cache_misses"] == 0
    assert report["analyze"]["cache_hits"] >= 1

    code, output = run_cli("workspace", "list", "--persist-dir", persist)
    assert code == 0
    assert json.loads(output)[0]["workspace"] == "default"


def test_serve_port_rejects_stdio_only_flags(tmp_path):
    for extra in (["--jsonrpc"], ["--cache-dir", str(tmp_path)],
                  ["--input", str(tmp_path / "x")]):
        code, output = run_cli("serve", "--port", "0", *extra)
        assert code == 2
        assert "stdio-mode flag" in output


def test_workspace_load_missing_is_clean_error(tmp_path):
    code, output = run_cli(
        "workspace", "load", "--persist-dir", str(tmp_path), "--workspace", "nope"
    )
    assert code == 2
    assert "error" in output


def test_serve_stdio_rejects_socket_only_flags(tmp_path):
    for extra in (["--log-level", "info"], ["--trace-dir", str(tmp_path)]):
        code, output = run_cli("serve", *extra)
        assert code == 2
        assert "socket-mode flag" in output


# ---------------------------------------------------------------------------
# trace / metrics (observability surfaces)
# ---------------------------------------------------------------------------


def test_trace_command_prints_span_tree(source_file):
    code, output = run_cli("trace", source_file)
    assert code == 0
    assert output.startswith("trace ")
    for span_name in ("analyze", "parse", "fixpoint"):
        assert span_name in output
    assert "spans," in output and "ms total" in output


def test_trace_command_json_and_chrome_export(tmp_path, source_file):
    import json

    chrome_path = tmp_path / "chrome.json"
    code, output = run_cli(
        "trace", source_file, "--json", "--chrome", str(chrome_path)
    )
    assert code == 0
    tree = json.loads(output.splitlines()[0])
    assert tree["root"]["name"] == "analyze"
    assert tree["root"]["children"], "trace has no child spans"

    document = json.loads(chrome_path.read_text(encoding="utf-8"))
    events = document["traceEvents"]
    assert any(event["name"] == "fixpoint" for event in events)
    assert all(event["ph"] == "X" for event in events)


def test_trace_command_honours_condition_flags(source_file):
    import json

    code, output = run_cli("trace", source_file, "--whole-program", "--json")
    assert code == 0
    tree = json.loads(output.splitlines()[0])
    fixpoints = [
        node for node in _walk(tree["root"]) if node["name"] == "fixpoint"
    ]
    assert fixpoints, "no fixpoint span recorded"


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def test_metrics_command_without_server_is_clean_error():
    code, output = run_cli("metrics", "--port", "1")  # nothing listens there
    assert code == 2
    assert "error" in output and "cannot connect" in output


# ---------------------------------------------------------------------------
# profile / bench (the performance observatory surfaces)
# ---------------------------------------------------------------------------


@pytest.fixture
def big_source_file(tmp_path):
    """A corpus large enough that one-shot analysis outlives a few sampler
    ticks at 1000hz (the tiny Figure-1 program analyses in ~4ms)."""
    functions = "\n".join(
        f"""
fn work_{i}(a: u32, b: u32) -> u32 {{
    let x = a + b;
    let y = x + a;
    let z = y + b;
    let w = z + x;
    w + y + work_helper_{i}(x, z)
}}

fn work_helper_{i}(p: u32, q: u32) -> u32 {{
    let m = p + q;
    let n = m + p;
    n + q
}}
"""
        for i in range(40)
    )
    path = tmp_path / "big.mrs"
    path.write_text(functions, encoding="utf-8")
    return str(path)


def test_profile_command_text_and_artifacts(tmp_path, big_source_file):
    import json

    source_file = big_source_file
    flame = tmp_path / "flame.svg"
    collapsed = tmp_path / "stacks.txt"
    chrome = tmp_path / "chrome.json"
    code, output = run_cli(
        "profile", source_file, "--hz", "1000",
        "--flame", str(flame), "--collapsed", str(collapsed),
        "--chrome", str(chrome),
    )
    assert code == 0
    assert "profiled" in output and "samples" in output
    assert "%" in output  # root attribution table

    svg = flame.read_text(encoding="utf-8")
    assert svg.startswith("<svg ") and "samples" in svg

    for line in collapsed.read_text(encoding="utf-8").splitlines():
        frames, _, count = line.rpartition(" ")
        assert frames and count.isdigit()

    document = json.loads(chrome.read_text(encoding="utf-8"))
    assert "traceEvents" in document
    assert "stackFrames" in document and "samples" in document
    # Merged samples reference interned stack frames on the trace's clock.
    for sample in document["samples"]:
        assert sample["sf"] in document["stackFrames"]


def test_profile_command_html_flame_and_json(tmp_path, source_file):
    import json

    flame = tmp_path / "flame.html"
    code, output = run_cli(
        "profile", source_file, "--json", "--flame", str(flame)
    )
    assert code == 0
    profile = json.loads(output.splitlines()[0])
    assert profile["total_samples"] >= 0
    assert "root_attribution" in profile and "stacks" in profile
    html = flame.read_text(encoding="utf-8")
    assert html.startswith("<!DOCTYPE html>") and "<svg " in html


def test_bench_run_twice_then_report_trends(tmp_path):
    import json

    ledger_dir = str(tmp_path / "history")
    for _ in range(2):
        code, output = run_cli(
            "bench", "--ledger-dir", ledger_dir, "--scale", "0.02",
            "--only", "theta_join",
        )
        assert code == 0
        summary = json.loads(output)
        assert summary["suite"] == ["theta_join"]
        # 3 object/bitset metrics, plus 2 vector metrics when numpy is there.
        assert summary["records"] == (5 if HAVE_NUMPY else 3)
        assert summary["metrics"]["theta_join.speedup"] > 0

    code, output = run_cli("bench", "--ledger-dir", ledger_dir, "report")
    assert code == 0
    assert "theta_join.speedup" in output
    assert "gate:" in output

    code, output = run_cli(
        "bench", "--ledger-dir", ledger_dir, "report", "--json"
    )
    assert code == 0
    report = json.loads(output)
    by_metric = {row["metric"]: row for row in report["metrics"]}
    assert by_metric["theta_join.speedup"]["runs"] == 2
    # Two real timing runs on a possibly-loaded machine: the verdict is
    # whatever the measurements say (deterministic-verdict coverage lives
    # in test_bench_history.py and the injected-regression test below) —
    # but the gate exit code must agree with the report's own gate block.
    assert by_metric["theta_join.speedup"]["verdict"] in {
        "ok", "improved", "regressed"
    }
    code, _output = run_cli("bench", "--ledger-dir", ledger_dir, "report", "--gate")
    assert code == (0 if report["gate"]["ok"] else 1)


def test_bench_gate_fails_on_injected_regression(tmp_path):
    import json
    import time as time_module

    from repro.eval.bench import record_run
    from repro.obs.history import HistoryLedger

    ledger_dir = tmp_path / "history"
    ledger = HistoryLedger(ledger_dir)
    config = {"suite": ["fig2"], "scale": 0.1}
    base = time_module.time()
    for offset, speedup in ((0, 3.0), (10, 3.0), (20, 1.4)):  # 2x slowdown
        record_run(
            ledger, {"fig2.engine_speedup": speedup},
            timestamp=base + offset, config=config,
        )

    code, output = run_cli(
        "bench", "--ledger-dir", str(ledger_dir), "report", "--gate"
    )
    assert code == 1
    assert "regressed" in output and "fig2.engine_speedup" in output

    # Without --gate the same report exits zero (report-only mode).
    code, output = run_cli("bench", "--ledger-dir", str(ledger_dir), "report")
    assert code == 0
    assert "gate: FAILED" in output


def test_bench_unknown_only_name_is_clean_error(tmp_path):
    code, output = run_cli(
        "bench", "--ledger-dir", str(tmp_path), "--only", "nope"
    )
    assert code == 2
    assert "error" in output and "nope" in output


def test_bench_backfill_ingests_report_dir(tmp_path):
    import json

    report_dir = tmp_path / "reports"
    report_dir.mkdir()
    (report_dir / "obs_overhead.json").write_text(
        json.dumps({"ratio": 1.01, "run_meta": {"duration_seconds": 2.0}}),
        encoding="utf-8",
    )
    ledger_dir = tmp_path / "history"
    code, output = run_cli(
        "bench", "--ledger-dir", str(ledger_dir),
        "backfill", "--report-dir", str(report_dir),
    )
    assert code == 0
    assert json.loads(output)["backfilled"] == 1

    code, output = run_cli(
        "bench", "--ledger-dir", str(ledger_dir), "report", "--json"
    )
    assert code == 0
    (row,) = json.loads(output)["metrics"]
    assert row["metric"] == "obs_overhead.ratio"
    assert row["verdict"] == "insufficient"  # one point is never judged


def test_metrics_slowlog_and_health_flags_are_exclusive():
    code, output = run_cli("metrics", "--port", "1", "--slowlog", "--health")
    assert code == 2
    assert "mutually exclusive" in output


def test_serve_stdio_rejects_slowlog_flags(tmp_path):
    for extra in (["--slowlog-threshold-ms", "5"], ["--no-slowlog"]):
        code, output = run_cli("serve", *extra)
        assert code == 2
        assert "socket-mode flag" in output


def test_profile_and_bench_help(capsys):
    for name, flags in (
        ("profile", ("--hz", "--flame", "--collapsed", "--chrome")),
        ("bench", ("--ledger-dir", "--scale", "--only", "report", "backfill")),
        ("metrics", ("--slowlog", "--health", "--limit", "--no-traces")),
        ("serve", ("--slowlog-threshold-ms", "--slowlog-capacity", "--no-slowlog")),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        for flag in flags:
            assert flag in output, f"{name} --help missing {flag}"


def test_deep_nesting_is_a_diagnostic_not_a_traceback(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    deep = tmp_path / "deep.mrs"
    deep.write_text("fn f() -> u32 {\n    " + "(" * 200 + "1" + ")" * 200 + "\n}\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(deep)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode != 0
    assert "Traceback" not in output and "RecursionError" not in output
    assert "nesting too deep" in output
    assert f"{deep}:2:" in output  # the span of the token over the limit
