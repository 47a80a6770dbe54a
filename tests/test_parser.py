"""Tests for the MiniRust parser."""

import pytest

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.parser import parse_crate, parse_expr, parse_program
from repro.lang.types import BoolType, Mutability, RefType, StructType, TupleType, U32Type, UnitType


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def test_parse_integer_literal():
    expr = parse_expr("42")
    assert isinstance(expr, ast.Literal)
    assert expr.value == 42


def test_parse_bool_literals():
    assert parse_expr("true").value is True
    assert parse_expr("false").value is False


def test_parse_unit_literal():
    expr = parse_expr("()")
    assert isinstance(expr, ast.Literal)
    assert expr.value is None


def test_arithmetic_precedence():
    expr = parse_expr("1 + 2 * 3")
    assert isinstance(expr, ast.Binary)
    assert expr.op is ast.BinOp.ADD
    assert isinstance(expr.rhs, ast.Binary)
    assert expr.rhs.op is ast.BinOp.MUL


def test_comparison_binds_looser_than_addition():
    expr = parse_expr("a + 1 < b")
    assert expr.op is ast.BinOp.LT
    assert isinstance(expr.lhs, ast.Binary)


def test_logical_operators_precedence():
    expr = parse_expr("a && b || c")
    assert expr.op is ast.BinOp.OR
    assert isinstance(expr.lhs, ast.Binary)
    assert expr.lhs.op is ast.BinOp.AND


def test_unary_not_and_negation():
    expr = parse_expr("!flag")
    assert isinstance(expr, ast.Unary)
    assert expr.op is ast.UnOp.NOT
    neg = parse_expr("-x")
    assert neg.op is ast.UnOp.NEG


def test_parse_deref_and_borrow():
    deref = parse_expr("*p")
    assert isinstance(deref, ast.Deref)
    borrow = parse_expr("&mut x")
    assert isinstance(borrow, ast.Borrow)
    assert borrow.mutable is True
    shared = parse_expr("&x")
    assert shared.mutable is False


def test_field_access_chain():
    expr = parse_expr("a.0.1")
    assert isinstance(expr, ast.FieldAccess)
    assert expr.fld == 1
    assert isinstance(expr.base, ast.FieldAccess)
    assert expr.base.fld == 0


def test_named_field_access():
    expr = parse_expr("point.x")
    assert isinstance(expr, ast.FieldAccess)
    assert expr.fld == "x"


def test_call_with_arguments():
    expr = parse_expr("f(1, x, g(2))")
    assert isinstance(expr, ast.Call)
    assert expr.func == "f"
    assert len(expr.args) == 3
    assert isinstance(expr.args[2], ast.Call)


def test_tuple_expression():
    expr = parse_expr("(1, 2, 3)")
    assert isinstance(expr, ast.TupleExpr)
    assert len(expr.elements) == 3


def test_parenthesised_expression_is_not_tuple():
    expr = parse_expr("(1 + 2)")
    assert isinstance(expr, ast.Binary)


def test_struct_literal():
    expr = parse_expr("Point { x: 1, y: 2 }")
    assert isinstance(expr, ast.StructLit)
    assert expr.struct_name == "Point"
    assert [name for name, _ in expr.fields] == ["x", "y"]


def test_if_expression_with_else():
    expr = parse_expr("if x > 1 { 1 } else { 2 }")
    assert isinstance(expr, ast.If)
    assert expr.else_block is not None


def test_if_else_if_chain():
    expr = parse_expr("if a { 1 } else if b { 2 } else { 3 }")
    assert isinstance(expr.else_block.tail, ast.If)


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expr("1 + 2 extra")


# ---------------------------------------------------------------------------
# Types and items
# ---------------------------------------------------------------------------


def test_parse_function_signature_types():
    crate = parse_crate("fn f(a: u32, b: bool, c: (u32, u32), d: &mut u32) -> u32 { a }")
    fn = crate.function("f")
    assert isinstance(fn.params[0].ty, U32Type)
    assert isinstance(fn.params[1].ty, BoolType)
    assert isinstance(fn.params[2].ty, TupleType)
    ref = fn.params[3].ty
    assert isinstance(ref, RefType)
    assert ref.mutability is Mutability.MUT


def test_parse_reference_with_lifetime():
    crate = parse_crate("fn f<'a>(x: &'a u32) -> &'a u32 { x }")
    fn = crate.function("f")
    assert fn.lifetime_params == ["a"]
    assert fn.params[0].ty.lifetime == "a"
    assert fn.ret_type.lifetime == "a"


def test_parse_unit_return_type_defaults():
    crate = parse_crate("fn f(x: u32) { }")
    assert isinstance(crate.function("f").ret_type, UnitType)


def test_parse_struct_definition():
    crate = parse_crate("struct Point { x: u32, y: u32 }")
    struct = crate.structs()[0]
    assert struct.name == "Point"
    assert [f.name for f in struct.fields] == ["x", "y"]
    assert not struct.opaque


def test_parse_opaque_struct():
    crate = parse_crate("struct Vec;")
    assert crate.structs()[0].opaque


def test_parse_extern_function_has_no_body():
    crate = parse_crate("extern fn read(x: &mut u32) -> u32;")
    fn = crate.function("read")
    assert fn.is_extern
    assert fn.body is None


def test_fn_with_semicolon_body_is_extern():
    crate = parse_crate("fn opaque(x: u32) -> u32;")
    assert crate.function("opaque").body is None


def test_parse_program_with_crates():
    program = parse_program(
        """
        crate deps {
            extern fn helper(x: u32) -> u32;
        }
        crate app {
            fn main_fn() -> u32 { helper(1) }
        }
        """,
        local_crate="app",
    )
    assert {c.name for c in program.crates} == {"deps", "app"}
    assert program.local_crate == "app"
    assert program.function("helper") is not None
    assert program.function_crate("main_fn") == "app"


def test_program_without_crate_keyword_goes_to_main():
    program = parse_program("fn f() -> u32 { 1 }")
    assert program.local_crate == "main"
    assert program.local.function("f") is not None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


def body_of(source):
    return parse_crate(source).functions()[0].body


def test_let_statement_with_type_and_mut():
    body = body_of("fn f() { let mut x: u32 = 1; }")
    let = body.stmts[0]
    assert isinstance(let, ast.LetStmt)
    assert let.mutable
    assert isinstance(let.declared_ty, U32Type)


def test_assignment_statement():
    body = body_of("fn f(p: &mut u32) { *p = 3; }")
    assign = body.stmts[0]
    assert isinstance(assign, ast.AssignStmt)
    assert isinstance(assign.target, ast.Deref)


def test_while_with_break_and_continue():
    body = body_of(
        """
        fn f() {
            while true {
                break;
                continue;
            }
        }
        """
    )
    loop_stmt = body.stmts[0]
    assert isinstance(loop_stmt, ast.WhileStmt)
    kinds = [type(s) for s in loop_stmt.body.stmts]
    assert ast.BreakStmt in kinds
    assert ast.ContinueStmt in kinds


def test_return_statement_with_and_without_value():
    body = body_of("fn f(x: u32) -> u32 { return x; }")
    assert isinstance(body.stmts[0], ast.ReturnStmt)
    body2 = body_of("fn f() { return; }")
    assert body2.stmts[0].value is None


def test_tail_expression_detected():
    body = body_of("fn f(x: u32) -> u32 { let y = x; y + 1 }")
    assert body.tail is not None
    assert isinstance(body.tail, ast.Binary)


def test_if_as_statement_without_semicolon():
    body = body_of("fn f(x: u32) { if x > 1 { } let y = 2; }")
    assert isinstance(body.stmts[0], ast.ExprStmt)
    assert isinstance(body.stmts[1], ast.LetStmt)


def test_struct_literal_not_parsed_in_condition():
    # `if x { ... }` must treat x as a variable, not a struct literal start.
    body = body_of("fn f(x: bool) { if x { } let y = 1; }")
    if_expr = body.stmts[0].expr
    assert isinstance(if_expr, ast.If)
    assert isinstance(if_expr.cond, ast.Var)


def test_missing_semicolon_is_parse_error():
    with pytest.raises(ParseError):
        parse_crate("fn f() { let x = 1 let y = 2; }")


def test_unknown_item_is_parse_error():
    with pytest.raises(ParseError):
        parse_crate("impl Foo {}")


def test_walk_block_visits_all_expressions():
    fn = parse_crate("fn f(x: u32) -> u32 { if x > 1 { x } else { x + 1 } }").functions()[0]
    nodes = list(ast.walk_block(fn.body))
    assert any(isinstance(n, ast.Binary) for n in nodes)
    assert any(isinstance(n, ast.If) for n in nodes)


def test_called_functions_helper():
    fn = parse_crate("fn f(x: u32) -> u32 { g(h(x)) }").functions()[0]
    assert sorted(ast.called_functions(fn)) == ["g", "h"]


# ---------------------------------------------------------------------------
# Nesting limit
# ---------------------------------------------------------------------------

from repro.lang.parser import MAX_NESTING_DEPTH  # noqa: E402


def _nested(kind: str, depth: int) -> str:
    """A function whose body nests ``depth`` levels of ``kind``."""
    if kind == "parens":
        inner = "(" * depth + "1" + ")" * depth
        return f"fn f() -> u32 {{ {inner} }}"
    if kind == "blocks":
        return "fn f() -> u32 " + "{ " * depth + "1" + " }" * depth
    if kind == "unary":
        return "fn f() -> u32 { " + "-" * depth + "1 }"
    if kind == "calls":
        inner = "g(" * depth + "1" + ")" * depth
        return f"fn g(x: u32) -> u32 {{ x }}\nfn f() -> u32 {{ {inner} }}"
    if kind == "else_if":
        chain = " else ".join(f"if true {{ {i} }}" for i in range(depth))
        return f"fn f() -> u32 {{ {chain} else {{ 0 }} }}"
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", ["parens", "blocks", "unary", "calls", "else_if"])
def test_deep_nesting_is_a_parse_error_with_a_span(kind):
    source = _nested(kind, 200)
    with pytest.raises(ParseError) as caught:
        parse_program(source)
    assert "nesting too deep" in str(caught.value)
    span = caught.value.span
    assert not span.is_dummy()
    # The span is the token that opened the level over the limit: on the
    # function's line, past the function header.
    assert span.start_line == source.count("\n") + 1
    assert span.start_col > len("fn f() -> u32 ")


def test_two_hundred_parens_report_the_crossing_token():
    source = _nested("parens", 200)
    with pytest.raises(ParseError) as caught:
        parse_program(source)
    # The block is level 1, and the tail expression that starts at the k-th
    # '(' is level k + 1: the crossing token is '(' number MAX.
    first = source.index("{ (") + 2 + 1
    col = first + MAX_NESTING_DEPTH - 1
    assert (caught.value.span.start_line, caught.value.span.start_col) == (1, col)


@pytest.mark.parametrize("kind", ["parens", "blocks", "unary", "calls", "else_if"])
def test_nesting_just_under_the_limit_runs_the_whole_pipeline(kind):
    from repro.core.engine import FlowEngine

    source = _nested(kind, MAX_NESTING_DEPTH - 3)
    engine = FlowEngine.from_source(source)
    for name in engine.local_function_names():
        engine.analyze_function(name)
