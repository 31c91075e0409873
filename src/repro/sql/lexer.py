"""SQL tokenizer.

Produces a flat token stream with character positions for error messages.
Keywords are case-insensitive and normalized to upper case; identifiers
keep their case (the engine's table/column names are case-sensitive).
Qualified names (``S.suppkey``) are lexed as a single NAME token, matching
how the engine's expression layer addresses columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.sql.errors import SqlError

KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "AS", "AND", "OR", "NOT",
        "MIN", "MAX", "SUM", "COUNT", "AVG",
        "ORDER", "ASC", "DESC", "LIMIT", "DISTINCT",
    }
)

#: Token kinds: KEYWORD, NAME, NUMBER, STRING, OP, STAR, COMMA, LPAREN,
#: RPAREN, DOT, EOF.
_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+(\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*(\.[A-Za-z_][A-Za-z_0-9]*)?)
  | (?P<op><>|<=|>=|!=|=|<|>|\+|-|/)
  | (?P<star>\*)
  | (?P<comma>,)
  | (?P<lparen>\()
  | (?P<rparen>\))
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str
    value: str
    position: int

    def is_keyword(self, *words: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.kind == "KEYWORD" and self.value in words


def tokenize(text: str) -> list[Token]:
    """Tokenize a SQL statement; raises :class:`SqlError` on junk input."""
    tokens: list[Token] = []
    position = 0
    length = len(text)
    while position < length:
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SqlError(
                f"unexpected character {text[position]!r}", text, position
            )
        group = match.lastgroup
        value = match.group()
        if group not in ("ws", "comment"):
            if group == "name":
                bare = value.upper()
                if "." not in value and bare in KEYWORDS:
                    tokens.append(Token("KEYWORD", bare, position))
                else:
                    tokens.append(Token("NAME", value, position))
            elif group == "number":
                tokens.append(Token("NUMBER", value, position))
            elif group == "string":
                tokens.append(Token("STRING", value, position))
            elif group == "op":
                tokens.append(Token("OP", value, position))
            else:
                tokens.append(Token(group.upper(), value, position))
        position = match.end()
    tokens.append(Token("EOF", "", length))
    return tokens
