"""Tests for the NDJSON protocol and the `repro serve` / `repro query` CLI."""

from __future__ import annotations

import io
import json

import pytest

from helpers import GET_COUNT_SOURCE, HELPER_CALLER_SOURCE

from repro.cli import main
from repro.service.protocol import AnalysisService, condition_from_params, serve
from repro.service.session import AnalysisSession


def run_requests(requests, session=None):
    """Feed requests through the serve loop; returns parsed responses."""
    in_stream = io.StringIO("\n".join(json.dumps(r) for r in requests) + "\n")
    out_stream = io.StringIO()
    code = serve(in_stream, out_stream, session)
    assert code == 0
    return [json.loads(line) for line in out_stream.getvalue().splitlines()]


class TestConditionParsing:
    def test_default_is_none(self):
        assert condition_from_params({}) is None

    def test_flags_round_trip(self):
        config = condition_from_params({"condition": {"whole_program": True}})
        assert config.whole_program and not config.mut_blind

    def test_unknown_flag_rejected(self):
        service = AnalysisService()
        response = service.handle(
            {"id": 9, "method": "analyze", "params": {"condition": {"bogus": True}}}
        )
        assert not response["ok"]
        assert "bogus" in response["error"]


class TestServeLoop:
    def test_deeply_nested_source_is_a_typed_parse_failure(self):
        deep = "fn f() -> u32 { " + "(" * 200 + "1" + ")" * 200 + " }"
        responses = run_requests(
            [
                {"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}},
                {"id": 2, "method": "update", "params": {"source": deep}},
                {"id": 3, "method": "open", "params": {"source": deep, "unit": "deep"}},
                {"id": 4, "method": "analyze", "params": {"function": "get_count"}},
            ]
        )
        for response in responses[1:3]:
            assert response["ok"] is False
            assert response["error_code"] == "repro_error"  # as for any syntax error
            assert "nesting too deep" in response["error"]
        assert responses[3]["ok"] is True  # the workspace is as it was

    def test_analyze_twice_second_served_from_store(self):
        responses = run_requests(
            [
                {"id": 1, "method": "open", "params": {"source": GET_COUNT_SOURCE}},
                {"id": 2, "method": "analyze", "params": {"function": "get_count"}},
                {"id": 3, "method": "analyze", "params": {"function": "get_count"}},
                {"id": 4, "method": "shutdown"},
            ]
        )
        assert [r["ok"] for r in responses] == [True] * 4
        assert responses[1]["result"]["functions"]["get_count"]["cache"] == "miss"
        assert responses[2]["result"]["functions"]["get_count"]["cache"] == "hit"
        # The acceptance check: the hit is observable in the response stats.
        assert responses[2]["result"]["stats"]["hits"] >= 1
        assert responses[3]["result"]["shutdown"] is True

    def test_edit_between_queries_invalidates(self):
        edited = HELPER_CALLER_SOURCE.replace("y + 1", "y + 2")
        responses = run_requests(
            [
                {"id": 1, "method": "open", "params": {"source": HELPER_CALLER_SOURCE}},
                {"id": 2, "method": "analyze", "params": {"function": "helper"}},
                {"id": 3, "method": "update", "params": {"source": edited}},
                {"id": 4, "method": "analyze", "params": {"function": "helper"}},
            ]
        )
        assert responses[2]["result"]["body_changed"] == ["helper"]
        assert responses[3]["result"]["functions"]["helper"]["cache"] == "miss"

    def test_slice_ifc_stats_and_condition(self):
        responses = run_requests(
            [
                {"id": 1, "method": "open", "params": {"source": HELPER_CALLER_SOURCE}},
                {
                    "id": 2,
                    "method": "analyze",
                    "params": {"function": "caller", "condition": {"whole_program": True}},
                },
                {
                    "id": 3,
                    "method": "slice",
                    "params": {"function": "caller", "variable": "r"},
                },
                {"id": 4, "method": "ifc", "params": {"sinks": []}},
                {"id": 5, "method": "stats"},
            ]
        )
        assert all(r["ok"] for r in responses)
        assert responses[1]["result"]["condition"] == "Whole-program"
        assert responses[2]["result"]["size"] > 0
        assert responses[3]["result"]["count"] == 0
        stats = responses[4]["result"]
        assert stats["counters"]["analyze_queries"] == 1
        assert stats["counters"]["slice_queries"] == 1
        assert stats["store_entries"] >= 1

    def test_errors_do_not_kill_the_loop(self):
        in_stream = io.StringIO(
            "this is not json\n"
            + json.dumps({"id": 2, "method": "frobnicate"})
            + "\n"
            + json.dumps({"id": 3, "method": "analyze"})
            + "\n"
            + json.dumps({"id": 4, "method": "ping"})
            + "\n"
        )
        out_stream = io.StringIO()
        serve(in_stream, out_stream)
        responses = [json.loads(line) for line in out_stream.getvalue().splitlines()]
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert "invalid JSON" in responses[0]["error"]
        assert "unknown method" in responses[1]["error"]
        assert "no sources opened" in responses[2]["error"]
        assert responses[3]["result"]["pong"] is True

    def test_failed_open_rolls_back_local_crate(self):
        service = AnalysisService()
        ok = service.handle(
            {"id": 1, "method": "open",
             "params": {"source": "fn f(x: u32) -> u32 { x }", "local_crate": "main"}}
        )
        assert ok["ok"]
        bad = service.handle(
            {"id": 2, "method": "open",
             "params": {"unit": "other", "source": "fn broken( {", "local_crate": "elsewhere"}}
        )
        assert not bad["ok"]
        assert service.session.local_crate == "main"
        # The surviving workspace still analyses under its original crate.
        after = service.handle({"id": 3, "method": "analyze"})
        assert after["ok"] and list(after["result"]["functions"]) == ["f"]

    def test_unexpected_exception_does_not_kill_the_loop(self, monkeypatch):
        service = AnalysisService()
        monkeypatch.setattr(
            service.session, "stats", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
        )
        responses = [
            service.handle({"id": 1, "method": "stats"}),
            service.handle({"id": 2, "method": "ping"}),
        ]
        assert not responses[0]["ok"]
        assert "internal error: RuntimeError: boom" in responses[0]["error"]
        assert responses[1]["ok"]

    def test_blank_lines_are_ignored(self):
        in_stream = io.StringIO("\n\n" + json.dumps({"id": 1, "method": "ping"}) + "\n\n")
        out_stream = io.StringIO()
        serve(in_stream, out_stream)
        assert len(out_stream.getvalue().splitlines()) == 1


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.mrs"
    path.write_text(GET_COUNT_SOURCE, encoding="utf-8")
    return str(path)


class TestCli:
    def test_serve_subcommand_with_input_file(self, tmp_path, source_file):
        requests = tmp_path / "requests.ndjson"
        requests.write_text(
            json.dumps({"id": 1, "method": "analyze", "params": {"function": "get_count"}})
            + "\n"
            + json.dumps({"id": 2, "method": "analyze", "params": {"function": "get_count"}})
            + "\n"
            + json.dumps({"id": 3, "method": "shutdown"})
            + "\n",
            encoding="utf-8",
        )
        out = io.StringIO()
        code = main(["serve", source_file, "--input", str(requests)], out=out)
        assert code == 0
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert responses[0]["result"]["functions"]["get_count"]["cache"] == "miss"
        assert responses[1]["result"]["functions"]["get_count"]["cache"] == "hit"
        assert responses[1]["result"]["stats"]["hits"] == 1

    def test_query_repeat_shows_warm_hits(self, source_file):
        out = io.StringIO()
        code = main(
            ["query", source_file, "--method", "analyze", "--function", "get_count",
             "--repeat", "2"],
            out=out,
        )
        assert code == 0
        first, second = [json.loads(line) for line in out.getvalue().splitlines()]
        assert first["result"]["cache_hits"] == 0
        assert second["result"]["cache_hits"] == 1

    def test_query_slice(self, source_file):
        out = io.StringIO()
        code = main(
            ["query", source_file, "--method", "slice", "--function", "get_count",
             "--variable", "k"],
            out=out,
        )
        assert code == 0
        response = json.loads(out.getvalue())
        assert response["ok"] and response["result"]["direction"] == "backward"

    def test_query_slice_missing_args_fails(self, source_file):
        out = io.StringIO()
        assert main(["query", source_file, "--method", "slice"], out=out) == 2

    def test_query_cache_dir_persists_across_invocations(self, tmp_path, source_file):
        cache_dir = str(tmp_path / "cache")
        out1, out2 = io.StringIO(), io.StringIO()
        main(["query", source_file, "--cache-dir", cache_dir], out=out1)
        main(["query", source_file, "--cache-dir", cache_dir], out=out2)
        cold = json.loads(out1.getvalue())
        warm = json.loads(out2.getvalue())
        assert cold["result"]["cache_hits"] == 0
        assert warm["result"]["cache_hits"] == len(warm["result"]["functions"])
        assert warm["result"]["stats"]["disk_hits"] >= 1
