"""Differential tests: an incremental workspace rebuild equals a cold one.

A session re-parses only the top-level items an edit touched, re-lowers only
the bodies whose declaration was re-parsed (or all of them when the typing
environment changed) and carries the other bodies' fingerprints over.  After
every step of a seeded edit sequence, the edited session must be
indistinguishable from a fresh session opened on the same text: the same
fingerprint snapshot, the same edit diff, and the same analyze, slice and
focus answers.  Failing edits must raise exactly the whole-text parser's
error and leave the served generation as it was.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

import pytest

from repro.errors import ParseError, QueryError, ReproError
from repro.eval.load import result_digest
from repro.fuzz.generator import generate_program, profile
from repro.lang import ast
from repro.lang.parser import ItemReuse, parse_program
from repro.obs import start_trace
from repro.service.session import AnalysisSession

SEED = 11
ADDED_ITEM = "    fn added_item(a: u32) -> u32 {\n        a + 1\n    }"

_ITEM_HEADER = re.compile(r"^\s*(?:struct|fn|extern fn) ")
_FN_HEADER = re.compile(r"^\s*fn (\w+)\(")
_EDITABLE = re.compile(r"^(\s+let \w+ = )([A-Za-z_]\w*) ([-+*]) ([A-Za-z_]\w*);$")


@pytest.fixture(scope="module")
def base_source() -> str:
    return generate_program(SEED, profile("small", crate_name="main")).source


def item_header_lines(source: str) -> List[int]:
    """Line indices where a top-level item starts (one item per line here)."""
    return [i for i, line in enumerate(source.splitlines()) if _ITEM_HEADER.match(line)]


def fn_header_line(source: str, name: str) -> int:
    for index, line in enumerate(source.splitlines()):
        match = _FN_HEADER.match(line)
        if match and match.group(1) == name:
            return index
    raise AssertionError(f"no function {name}")


def replace_line(source: str, index: int, text: str) -> str:
    lines = source.splitlines()
    lines[index] = text
    return "\n".join(lines) + "\n"


def insert_line(source: str, index: int, text: str) -> str:
    lines = source.splitlines()
    lines.insert(index, text)
    return "\n".join(lines) + "\n"


def in_line_edit(source: str) -> Tuple[str, str, int]:
    """Swap one ``let x = a OP b;`` to ``b OP b``: (new text, fn, line)."""
    current = None
    for index, line in enumerate(source.splitlines()):
        header = _FN_HEADER.match(line)
        if header:
            current = header.group(1)
            continue
        match = _EDITABLE.match(line)
        if match and current and match.group(2) != match.group(4):
            head, _, op, right = match.groups()
            return replace_line(source, index, f"{head}{right} {op} {right};"), current, index
    raise AssertionError("no editable line")


def diff_snapshots(old: dict, new: dict) -> Dict[str, List[str]]:
    """The session's edit-diff rule applied to two cold snapshots."""
    body, sig = set(), set()
    for name, (new_sig, new_body) in new.items():
        if name in old:
            if old[name][0] != new_sig:
                sig.add(name)
            elif old[name][1] != new_body:
                body.add(name)
    return {
        "body_changed": sorted(body),
        "sig_changed": sorted(sig),
        "removed": sorted(set(old) - set(new)),
    }


def cursors(session: AnalysisSession) -> List[Tuple[int, int]]:
    """A cursor on the first field access of every local function.

    Cursor resolution reads the type checker's annotations on the AST, so
    these queries see annotations a failed rebuild could have left stale.
    """
    out = []
    for fn in session._checked.program.local.functions():
        if fn.body is None:
            continue
        for node in ast.walk_block(fn.body):
            if isinstance(node, ast.FieldAccess):
                out.append((node.span.end_line, node.span.end_col - 1))
                break
    return out


def answers(session: AnalysisSession, at: List[Tuple[int, int]]) -> Dict[str, str]:
    """Digests of analyze, slice and focus answers for every local function."""
    out = {"analyze": result_digest(session.analyze())}
    for fn_name in session.function_names():
        variables = sorted(session.variables_of(fn_name))[:1]
        for variable in variables:
            out[f"slice:{fn_name}:{variable}"] = result_digest(
                session.slice(fn_name, variable)
            )
            out[f"focus:{fn_name}:{variable}"] = result_digest(
                session.focus(function=fn_name, variable=variable)
            )
    for line, col in at:
        try:
            out[f"focus:{line}:{col}"] = result_digest(session.focus(line=line, col=col))
        except QueryError as error:
            out[f"focus:{line}:{col}"] = error.code
    return out


def cold(source: str) -> AnalysisSession:
    session = AnalysisSession()
    session.open_unit("main", source)
    return session


def assert_same_as_cold(session: AnalysisSession, source: str) -> None:
    reference = cold(source)
    assert session.source == reference.source
    assert session._fingerprints.snapshot() == reference._fingerprints.snapshot()
    at = cursors(reference)
    assert answers(session, at) == answers(reference, at)


def assert_same_error(actual: ReproError, expected: ReproError) -> None:
    assert type(actual) is type(expected)
    assert str(actual) == str(expected)
    assert actual.span == expected.span


def counters(session: AnalysisSession) -> Dict[str, int]:
    return dict(session.stats()["counters"])


def counter_delta(before: dict, after: dict) -> Dict[str, int]:
    keys = ("items_reused", "items_reparsed", "bodies_relowered", "full_parse_fallbacks")
    return {key: after[key] - before[key] for key in keys}


def whole_text_error(source: str) -> ReproError:
    with pytest.raises(ReproError) as caught:
        parse_program(source)
    return caught.value


class TestIncrementalEqualsCold:
    def test_edit_sequence(self, base_source):
        items = len(item_header_lines(base_source))
        session = cold(base_source)
        assert counters(session)["items_reparsed"] == items
        good = base_source

        def step(new_source: str) -> Tuple[dict, Dict[str, int]]:
            nonlocal good
            old_snapshot = cold(good)._fingerprints.snapshot()
            before = counters(session)
            out = session.update_unit("main", new_source)
            delta = counter_delta(before, counters(session))
            assert_same_as_cold(session, new_source)
            expected = diff_snapshots(old_snapshot, session._fingerprints.snapshot())
            assert {key: out[key] for key in expected} == expected
            good = new_source
            return out, delta

        def failing_step(new_source: str, error_type=ReproError) -> None:
            snapshot = session._fingerprints.snapshot()
            generation = session.generation
            with pytest.raises(error_type) as caught:
                session.update_unit("main", new_source)
            with pytest.raises(ReproError) as fresh:
                cold(new_source)
            assert_same_error(caught.value, fresh.value)
            if isinstance(caught.value, ParseError):
                assert_same_error(caught.value, whole_text_error(new_source))
            assert session.generation == generation
            assert session._fingerprints.snapshot() == snapshot
            assert_same_as_cold(session, good)

        # 1. An in-line body edit re-parses and re-lowers one item.
        edited, fn_name, _ = in_line_edit(good)
        out, delta = step(edited)
        assert out["body_changed"] == [fn_name]
        assert delta == {
            "items_reused": items - 1,
            "items_reparsed": 1,
            "bodies_relowered": 1,
            "full_parse_fallbacks": 0,
        }

        # 2. A line-inserting edit re-parses the edited item and every item
        # below it (their start lines moved); items above are reused.
        names = [m.group(1) for m in map(_FN_HEADER.match, good.splitlines()) if m]
        target = names[len(names) // 2]
        header = fn_header_line(good, target)
        above = sum(1 for line in item_header_lines(good) if line < header)
        out, delta = step(insert_line(good, header + 1, "        let inserted_probe = 7;"))
        assert target in out["body_changed"]
        assert delta["items_reused"] == above
        assert delta["items_reparsed"] == items - above
        assert delta["full_parse_fallbacks"] == 0

        # 3. A signature change (explicit lifetime on a reference parameter).
        getter = next(i for i, line in enumerate(good.splitlines())
                      if _FN_HEADER.match(line) and "(s: &" in line)
        line = good.splitlines()[getter]
        getter_name = _FN_HEADER.match(line).group(1)
        out, _ = step(replace_line(good, getter, line.replace("(s: &", "<'x>(s: &'x ", 1)))
        assert getter_name in out["sig_changed"]

        # 4. A struct-field change: reordering S0's fields moves every field
        # index, so reused items must not keep types resolved against the
        # old layout.
        struct_line = next(i for i, line in enumerate(good.splitlines())
                           if line.strip().startswith("struct S0 {"))
        fields = re.match(r"^(\s*struct S0 \{ )(.*)( \})$", good.splitlines()[struct_line])
        reordered = ", ".join(reversed(fields.group(2).split(", ")))
        _, delta = step(replace_line(
            good, struct_line, f"{fields.group(1)}{reordered}{fields.group(3)}"))
        assert delta["items_reparsed"] == 1
        assert delta["bodies_relowered"] == len(session.function_names())

        # 5. An item added at the end of the local crate, then removed.
        crate_end = good.splitlines().index("crate extfuzz {") - 1
        below = len([line for line in item_header_lines(good) if line >= crate_end])
        before_add = good
        out, delta = step(insert_line(good, crate_end, ADDED_ITEM))
        assert "added_item" in session.function_names()
        assert delta["items_reparsed"] == 1 + below
        out, _ = step(before_add)
        assert out["removed"] == ["added_item"]

        # 6. Braces inside a `//` comment split nothing.
        _, _, index = in_line_edit(good)
        commented = replace_line(good, index, good.splitlines()[index] + "  // } { }}")
        out, delta = step(commented)
        assert delta["items_reparsed"] == 1
        assert delta["full_parse_fallbacks"] == 0

        # 7. An unbalanced brace: exactly the whole-text parser's error.
        failing_step(insert_line(good, index + 1, "        let opened = {"), ParseError)
        lines = good.splitlines()
        closing = len(lines) - 1 - lines[::-1].index("    }")
        failing_step(replace_line(good, closing, ""), ParseError)

        # 8. Type errors after the parse succeeded.  Reused items were
        # re-checked against the failing text: its errors must be a cold
        # check's, and the generation still served must answer as before.
        failing_step(good.replace("struct S0 { ", "struct S0 { renamed_", 1))
        lines = good.splitlines()
        s1_line = next(i for i, line in enumerate(lines) if line.strip().startswith("struct S1 {"))
        failing_step(replace_line(good, s1_line, ""))
        # Field indices move and another item fails to check.
        s0_line = next(i for i, line in enumerate(lines) if line.strip().startswith("struct S0 {"))
        fields = re.match(r"^(\s*struct S0 \{ )(.*)( \})$", lines[s0_line])
        rotated = fields.group(2).split(", ")
        rotated = ", ".join(rotated[1:] + rotated[:1])
        broken = replace_line(good, s0_line, f"{fields.group(1)}{rotated}{fields.group(3)}")
        failing_step(broken + "fn broken() -> u32 { true }\n")

        # 9. ...and a good edit after the failing ones.
        edited, fn_name, _ = in_line_edit(good)
        out, delta = step(edited)
        assert out["body_changed"] == [fn_name]
        assert delta["items_reparsed"] == 1

    def test_open_on_fresh_session_parses_every_item(self, base_source):
        session = cold(base_source)
        stats = counters(session)
        assert stats["items_reused"] == 0
        assert stats["items_reparsed"] == len(item_header_lines(base_source))
        assert stats["bodies_relowered"] == len(
            [line for line in base_source.splitlines() if _FN_HEADER.match(line)]
        )
        assert stats["full_parse_fallbacks"] == 0


class TestReuseIsObservable:
    def test_in_line_edit_counters_and_rebuild_span(self, base_source):
        session = cold(base_source)
        edited, _, _ = in_line_edit(base_source)
        before = counters(session)
        with start_trace("update") as trace:
            session.update_unit("main", edited)
        delta = counter_delta(before, counters(session))
        items = len(item_header_lines(base_source))
        assert delta == {
            "items_reused": items - 1,
            "items_reparsed": 1,
            "bodies_relowered": 1,
            "full_parse_fallbacks": 0,
        }
        (rebuild,) = [span for span in trace.spans() if span.name == "rebuild"]
        assert {key: rebuild.attrs[key] for key in delta} == delta

    def test_fallback_is_counted(self):
        # A comment inside a crate header is legal but not something the
        # item splitter handles: the whole text is parsed instead.
        source = "crate // the local crate\n main {\n    fn f(a: u32) -> u32 { a }\n}\n"
        session = AnalysisSession()
        session.open_unit("main", source)
        assert session.function_names() == ["f"]
        stats = counters(session)
        assert stats["full_parse_fallbacks"] == 1
        assert stats["items_reparsed"] == 0


def _shape(program) -> str:
    """A program's repr without the per-parse node ids."""
    return re.sub(r"node_id=\d+, ", "", repr(program))


class TestItemPath:
    SOURCES = [
        "fn f(a: u32) -> u32 { a }\nstruct S { x: u32 }\nextern fn g(s: S) -> u32;",
        "// header\ncrate dep {\n  struct T;\n  extern fn h(t: &T);\n}\n"
        "fn main_fn() { let x = 1; } // trailing } comment",
        "crate a { fn f() {} }\ncrate b { fn g() { f(); } }\n",
        "crate lib { fn f() {} }",
        "",
        "   // only a comment\n",
    ]

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("local_crate", ["main", "b"])
    def test_item_path_builds_the_whole_text_program(self, source, local_crate):
        reuse = ItemReuse()
        program = parse_program(source, local_crate=local_crate, reuse=reuse)
        assert not reuse.fallback
        assert _shape(program) == _shape(parse_program(source, local_crate=local_crate))
        again = ItemReuse(previous=reuse.items)
        reused = parse_program(source, local_crate=local_crate, reuse=again)
        assert _shape(reused) == _shape(program)
        assert again.reparsed == 0 and again.reused == len(reuse.items)

    @pytest.mark.parametrize("source", [
        "fn f() { let x = 1;",
        "fn f() { } }",
        "crate a { fn f() {} ",
        "crate a { crate b { } }",
        "crate fn { }",
        "fn f() {} ;",
        "fn f() -> u32 { 1 } fn g() { @ }",
        "struct S { a: u32 } fn",
        "fn f() { ((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((((("
        "((((1)))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))))) }",
    ])
    def test_errors_are_the_whole_text_errors(self, source):
        with pytest.raises(ReproError) as whole:
            parse_program(source)
        reuse = ItemReuse()
        with pytest.raises(ReproError) as items:
            parse_program(source, reuse=reuse)
        assert type(items.value) is type(whole.value)
        assert str(items.value) == str(whole.value)
        assert items.value.span == whole.value.span
        assert reuse.fallback

    def test_random_edits_parse_like_the_whole_text(self, base_source):
        """Seeded random character edits: the item path (with reuse) gives
        the whole-text parser's program or its exact error."""
        import random

        def outcome(source, reuse=None):
            try:
                return ("ok", _shape(parse_program(source, reuse=reuse)))
            except ReproError as error:
                return (type(error).__name__, str(error), error.span)

        rng = random.Random(SEED)
        pieces = list("{}();,/ \n") + ["//", "fn ", "crate ", "struct ", "}\n", "crate x {"]
        first = ItemReuse()
        parse_program(base_source, reuse=first)
        for _ in range(150):
            source = base_source
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(source) + 1)
                if rng.random() < 0.5:
                    source = source[:at] + rng.choice(pieces) + source[at:]
                else:
                    source = source[:at] + source[at + rng.randint(1, 6):]
            reuse = ItemReuse(previous=first.items)
            assert outcome(source, reuse) == outcome(source)
