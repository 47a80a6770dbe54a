"""A hand-written lexer for MiniRust.

The lexer is a straightforward single-pass scanner: it tracks line/column
positions for spans, skips ``//`` line comments, and distinguishes lifetimes
(``'a``) from other tokens.  Keeping it hand-written (rather than using a
regex table) makes error positions exact and the token stream easy to extend.
"""

from __future__ import annotations

from typing import List

from repro.errors import LexError, Span
from repro.lang.tokens import KEYWORDS, Token, TokenKind


class Lexer:
    """Converts MiniRust source text into a list of :class:`Token`."""

    def __init__(self, source: str, line: int = 1, col: int = 1):
        self.source = source
        self.pos = 0
        self.line = line
        self.col = col
        self.tokens: List[Token] = []

    # -- low-level cursor helpers ------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        if index < len(self.source):
            return self.source[index]
        return "\0"

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    def _span_from(self, start_line: int, start_col: int) -> Span:
        return Span(start_line, start_col, self.line, self.col)

    def _emit(self, kind: TokenKind, text: str, span: Span, value=None) -> None:
        self.tokens.append(Token(kind, text, span, value))

    # -- scanning ----------------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Scan the whole input and return the token list (ending in EOF)."""
        while not self._at_end():
            self._skip_trivia()
            if self._at_end():
                break
            start_line, start_col = self.line, self.col
            ch = self._peek()
            if ch.isdigit():
                self._lex_number(start_line, start_col)
            elif ch.isalpha() or ch == "_":
                self._lex_ident(start_line, start_col)
            elif ch == "'":
                self._lex_lifetime(start_line, start_col)
            else:
                self._lex_punct(start_line, start_col)
        self._emit(TokenKind.EOF, "", Span.point(self.line, self.col))
        return self.tokens

    def _skip_trivia(self) -> None:
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _lex_number(self, start_line: int, start_col: int) -> None:
        text = ""
        while not self._at_end() and (self._peek().isdigit() or self._peek() == "_"):
            text += self._advance()
        digits = text.replace("_", "")
        span = self._span_from(start_line, start_col)
        if not digits:
            raise LexError(f"malformed number literal {text!r}", span)
        self._emit(TokenKind.INT, text, span, int(digits))

    def _lex_ident(self, start_line: int, start_col: int) -> None:
        text = ""
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            text += self._advance()
        span = self._span_from(start_line, start_col)
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        self._emit(kind, text, span, text)

    def _lex_lifetime(self, start_line: int, start_col: int) -> None:
        self._advance()  # consume the quote
        name = ""
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            name += self._advance()
        span = self._span_from(start_line, start_col)
        if not name:
            raise LexError("expected lifetime name after \"'\"", span)
        self._emit(TokenKind.LIFETIME, "'" + name, span, name)

    _SINGLE = {
        "(": TokenKind.LPAREN,
        ")": TokenKind.RPAREN,
        "{": TokenKind.LBRACE,
        "}": TokenKind.RBRACE,
        ",": TokenKind.COMMA,
        ";": TokenKind.SEMI,
        ":": TokenKind.COLON,
        ".": TokenKind.DOT,
        "*": TokenKind.STAR,
        "+": TokenKind.PLUS,
        "/": TokenKind.SLASH,
        "%": TokenKind.PERCENT,
    }

    def _lex_punct(self, start_line: int, start_col: int) -> None:
        ch = self._advance()
        two = ch + self._peek()
        span_one = self._span_from(start_line, start_col)

        if two == "->":
            self._advance()
            self._emit(TokenKind.ARROW, two, self._span_from(start_line, start_col))
        elif two == "==":
            self._advance()
            self._emit(TokenKind.EQEQ, two, self._span_from(start_line, start_col))
        elif two == "!=":
            self._advance()
            self._emit(TokenKind.NE, two, self._span_from(start_line, start_col))
        elif two == "<=":
            self._advance()
            self._emit(TokenKind.LE, two, self._span_from(start_line, start_col))
        elif two == ">=":
            self._advance()
            self._emit(TokenKind.GE, two, self._span_from(start_line, start_col))
        elif two == "&&":
            self._advance()
            self._emit(TokenKind.ANDAND, two, self._span_from(start_line, start_col))
        elif two == "||":
            self._advance()
            self._emit(TokenKind.OROR, two, self._span_from(start_line, start_col))
        elif ch == "&":
            self._emit(TokenKind.AMP, ch, span_one)
        elif ch == "-":
            self._emit(TokenKind.MINUS, ch, span_one)
        elif ch == "!":
            self._emit(TokenKind.BANG, ch, span_one)
        elif ch == "<":
            self._emit(TokenKind.LT, ch, span_one)
        elif ch == ">":
            self._emit(TokenKind.GT, ch, span_one)
        elif ch == "=":
            self._emit(TokenKind.EQ, ch, span_one)
        elif ch in self._SINGLE:
            self._emit(self._SINGLE[ch], ch, span_one)
        else:
            raise LexError(f"unexpected character {ch!r}", span_one)


def tokenize(source: str, line: int = 1, col: int = 1) -> List[Token]:
    """Tokenize ``source`` and return the token list (ending in EOF).

    ``line``/``col`` give the position of ``source``'s first character, so a
    slice of a larger text (one top-level item) lexes to absolute spans.
    """
    return Lexer(source, line, col).tokenize()
