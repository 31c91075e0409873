"""SQL front-end errors."""

from __future__ import annotations


class SqlError(Exception):
    """A lexing, parsing, or translation error, with source position.

    ``position`` is a character offset into the statement text; the
    message renders a caret line pointing at it.
    """

    def __init__(self, message: str, text: str = "", position: int | None = None):
        self.position = position
        if text and position is not None:
            line_start = text.rfind("\n", 0, position) + 1
            line_end = text.find("\n", position)
            if line_end == -1:
                line_end = len(text)
            line = text[line_start:line_end]
            caret = " " * (position - line_start) + "^"
            message = f"{message}\n  {line}\n  {caret}"
        super().__init__(message)
