"""Split MiniRust source text into its top-level items without lexing it.

An incremental workspace rebuild re-parses only the items an edit touched,
so it first needs each item's text and start position.  The splitter finds
them with one regular-expression scan over the structural characters
(``{``, ``}``, ``;`` and ``//`` comments):

* a ``crate NAME {`` header opens a crate block and a ``}`` at the block's
  base depth closes it;
* any other item runs from its first character to the ``;`` at its own base
  depth or the ``}`` that brings it back there.

The splitter only proposes boundaries; the parser confirms them by parsing
each piece as exactly one item.  Whenever either cannot account for the
whole text, :func:`split_items` returns ``None`` (or the item parse fails)
and the caller falls back to a whole-text parse, so every error and every
program is exactly what the whole-text parser gives.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from repro.errors import Span
from repro.lang.tokens import KEYWORDS

# The lexer's trivia: ASCII whitespace and ``//`` line comments.
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")
_CRATE_HEADER = re.compile(
    r"crate(?![A-Za-z0-9_])[ \t\r\n]*([A-Za-z_][A-Za-z0-9_]*)[ \t\r\n]*\{"
)
_STRUCTURE = re.compile(r"//[^\n]*|[{};]")


# Plain classes rather than dataclasses: this module is imported on every
# CLI start, and a dataclass costs most of a millisecond to create.


class ItemText:
    """One top-level item's source text and the position it starts at."""

    __slots__ = ("line", "col", "text")

    def __init__(self, line: int, col: int, text: str):
        self.line = line
        self.col = col
        self.text = text


class CrateText:
    """A ``crate NAME { ... }`` block: its name token's span and its items."""

    __slots__ = ("name", "span", "items")

    def __init__(self, name: str, span: Span):
        self.name = name
        self.span = span
        self.items: List[ItemText] = []


class _Positions:
    """Line/column of increasing offsets into one text, counted incrementally."""

    def __init__(self, source: str):
        self.source = source
        self.offset = 0
        self.line = 1
        self.line_start = 0

    def at(self, offset: int) -> Tuple[int, int]:
        newlines = self.source.count("\n", self.offset, offset)
        if newlines:
            self.line += newlines
            self.line_start = self.source.rfind("\n", 0, offset) + 1
        self.offset = offset
        return self.line, offset - self.line_start + 1


def _item_end(source: str, start: int) -> Optional[int]:
    """Offset just past the item starting at ``start``, or ``None``."""
    depth = 0
    for match in _STRUCTURE.finditer(source, start):
        char = source[match.start()]
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
            if depth == 0:
                return match.end()
            if depth < 0:
                return None
        elif char == ";" and depth == 0:
            return match.end()
    return None


def split_items(source: str) -> Optional[List[Union[ItemText, CrateText]]]:
    """The top-level items and crate blocks of ``source``, in order.

    Returns ``None`` when the text has a shape the splitter does not
    account for (an unbalanced brace, a stray ``}``, an unclosed crate, a
    crate header with a comment inside): the caller then parses the whole
    text, which reports the error exactly.
    """
    positions = _Positions(source)
    entries: List[Union[ItemText, CrateText]] = []
    crate: Optional[CrateText] = None
    pos = _TRIVIA.match(source, 0).end()
    while pos < len(source):
        header = _CRATE_HEADER.match(source, pos)
        if header is not None:
            if crate is not None or header.group(1) in KEYWORDS:
                return None
            line, col = positions.at(header.start(1))
            name = header.group(1)
            crate = CrateText(name=name, span=Span(line, col, line, col + len(name)))
            entries.append(crate)
            end = header.end()
        elif source[pos] == "}":
            if crate is None:
                return None
            crate = None
            end = pos + 1
        else:
            end = _item_end(source, pos)
            if end is None:
                return None
            line, col = positions.at(pos)
            item = ItemText(line=line, col=col, text=source[pos:end])
            if crate is not None:
                crate.items.append(item)
            else:
                entries.append(item)
        pos = _TRIVIA.match(source, end).end()
    if crate is not None:
        return None
    return entries
