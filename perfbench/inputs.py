"""Seeded inputs and their measured properties.

All inputs come from the program's own generators (the paper-template
corpus of :mod:`repro.eval.corpus` and the grammar-directed fuzz generator
of :mod:`repro.fuzz.generator`), drawn from ``--seed``; the program under
test only ever sees the resulting source text.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

# fig2-batch: the ten paper-template crates at this scale plus this many
# seeded `large` fuzz crates (~1000 lines each).
CORPUS_SCALE = 0.15
FUZZ_CRATES = 6
# Tiny inputs for the self-test.
TINY_SCALE = 0.03
# Statements per entry and per helper function of a `large` program.  The
# profile draws them from (14, 30) and (2, 6), which makes program size vary
# by ~10% from seed to seed; fixing them leaves the seed to choose the
# program's structure while its size varies by ~5%.
ENTRY_STATEMENTS = 22
HELPER_STATEMENTS = 4


def fuzz_source(seed: int, crate: str, size: str = "large") -> str:
    import dataclasses

    from repro.fuzz.generator import generate_program, profile

    config = profile(size, crate_name=crate)
    if size == "large":
        config = dataclasses.replace(
            config,
            entry_statements=(ENTRY_STATEMENTS, ENTRY_STATEMENTS),
            helper_statements=(HELPER_STATEMENTS, HELPER_STATEMENTS),
        )
    return generate_program(seed, config).source


def batch_crates(seed: int, tiny: bool = False) -> List[Tuple[str, str]]:
    """``(crate name, source)`` for every crate of one fig2-batch pass."""
    from repro.eval.corpus import generate_corpus

    corpus = generate_corpus(scale=TINY_SCALE if tiny else CORPUS_SCALE)
    crates = [(crate.name, crate.source) for crate in corpus]
    if tiny:
        crates = crates[:2]
    count = 1 if tiny else FUZZ_CRATES
    for index in range(count):
        name = f"fuzz{index}"
        crates.append(
            (name, fuzz_source(seed * 1000 + index, name, "small" if tiny else "large"))
        )
    return crates


def program(seed: int, tiny: bool = False) -> str:
    """One ~1000-line program whose local crate is ``main``."""
    return fuzz_source(seed, "main", "small" if tiny else "large")


# -- properties ------------------------------------------------------------------


def properties(crates: List[Tuple[str, str]]) -> Dict[str, float]:
    """Input properties a later "helps only inputs with X" claim can cite.

    Lines, local functions and their MIR locations; the share of bodies
    whose Θ rows (one bit per location plus one per argument tag) span more
    than one 64-bit word; and the longest acyclic call chain among local
    functions, which bounds the Whole-program recursion.
    """
    from repro.lang.parser import parse_program
    from repro.lang.typeck import check_program
    from repro.mir.callgraph import build_call_graph
    from repro.mir.lower import lower_program

    lines = functions = locations = multiword = 0
    depth = 0
    for name, source in crates:
        lines += len(source.splitlines())
        lowered = lower_program(check_program(parse_program(source, local_crate=name)))
        local = [body for body in lowered.local_bodies()]
        functions += len(local)
        for body in local:
            locations += body.num_instructions()
            if body.num_instructions() + len(body.arg_locals()) > 64:
                multiword += 1
        graph = build_call_graph(lowered)
        local_names = {body.fn_name for body in local}
        depth = max(depth, _longest_chain(graph, local_names))
    return {
        "input.lines": lines,
        "input.functions": functions,
        "input.mir_locations": locations,
        "input.multiword_share": multiword / functions if functions else 0.0,
        "input.wp_depth": depth,
    }


def _longest_chain(graph, names) -> int:
    """Longest call chain (in functions) through local functions; a call
    back into a function already on the chain ends it."""
    memo: Dict[str, int] = {}

    def visit(name: str, on_path: set) -> int:
        if name in memo:
            return memo[name]
        on_path.add(name)
        best = 0
        for callee in graph.unique_callees(name):
            if callee in names and callee not in on_path:
                best = max(best, visit(callee, on_path))
        on_path.discard(name)
        memo[name] = best + 1
        return best + 1

    return max((visit(name, set()) for name in sorted(names)), default=0)


# -- edits -----------------------------------------------------------------------

# `let x = a OP b;` with two named operands: replacing `a` by `b` keeps the
# line count and the types (both operands of a u32 operator are u32) and
# changes the statement's dependencies.
_EDITABLE = re.compile(r"^(\s+let \w+ = )([A-Za-z_]\w*) ([-+*]) ([A-Za-z_]\w*);$")


def edit_sites(source: str) -> Dict[str, Tuple[int, str]]:
    """Per function, its first editable line: ``{fn: (line index, new text)}``."""
    sites: Dict[str, Tuple[int, str]] = {}
    current = None
    for index, line in enumerate(source.splitlines()):
        header = re.match(r"^\s+fn (\w+)\(", line)
        if header:
            current = header.group(1)
            continue
        match = _EDITABLE.match(line)
        if match and current and current not in sites and match.group(2) != match.group(4):
            head, _, op, right = match.groups()
            sites[current] = (index, f"{head}{right} {op} {right};")
    return sites


def apply_edit(source: str, site: Tuple[int, str]) -> str:
    lines = source.splitlines()
    index, text = site
    lines[index] = text
    return "\n".join(lines) + ("\n" if source.endswith("\n") else "")
