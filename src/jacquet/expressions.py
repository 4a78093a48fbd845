"""The expression mini-language and its printers.

Grammar (whitespace insignificant)::

    expr    := glpart ("|x|" IDENT)?
    glpart  := "1" | delta ("x" delta)*
    delta   := "d(" num "," num "@" IDENT ")"
    num     := INT | INT "/" "2" | "-" num

``d(1/2,5/2@rho) |x| sigma`` is a one-segment class over the anchor
``sigma``.  Empty segments cannot be written as deltas (b must be >= a);
the unit glpart is the literal ``1``.  For multiplicity targets the
top-level separator ``(x)`` joins tensor factors::

    target  := glpart ("(x)" glpart)* ("|x|" IDENT)?

Errors carry line and column.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import Optional

from .errors import ExpressionError, SegmentError, UnknownLabelError, _checked
from .grothendieck import GLMonomial, GUClass, TensorTerm, _product_text
from .scalars import GUCuspidalLabel, HalfInt, Keyed, TRIVIAL_TWIST
from .segments import Segment

__all__ = ["Expression", "parse_expression"]


class Expression(Keyed):
    """Parsed form of one expression: segment literals plus optional anchor."""

    __slots__ = ("gl_part", "gu_anchor", "key")

    def __init__(self, gl_part: tuple, gu_anchor: Optional[GUCuspidalLabel]):
        gl_part = _checked("an Expression", Segment, gl_part)
        _checked("an Expression anchor", (GUCuspidalLabel, type(None)), (gu_anchor,))
        self._fill(gl_part, gu_anchor, (tuple(s.key for s in gl_part),
                                        gu_anchor.name if gu_anchor else None))

    def gu_class(self) -> GUClass:
        if self.gu_anchor is None:
            raise ExpressionError("expression has no |x| anchor")
        return GUClass(self.gl_part, self.gu_anchor, TRIVIAL_TWIST)

    def gl_monomial(self) -> GLMonomial:
        return GLMonomial(self.gl_part)

    def __str__(self):
        head = _product_text(self.gl_part)
        if self.gu_anchor is None:
            return head
        return f"{head} |x| {self.gu_anchor.name}"


# One token per match: a whitespace run, a punctuation mark, an INT or an
# IDENT.  ``\w`` also admits numerals such as '½', so an IDENT's first
# character is checked in ``_tokenize``.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<punct>\|x\||\(x\)|[(),@/-])"
                    r"|(?P<INT>\d+)|(?P<IDENT>\w[\w~]*)")


def _tokenize(text: str):
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        kind = m and m.lastgroup
        if not kind or kind == "IDENT" and not (text[i].isalpha() or text[i] == "_"):
            raise ExpressionError(f"unexpected character {text[i]!r}",
                                  line, i - line_start + 1)
        if kind == "space":
            if "\n" in m[0]:
                line += m[0].count("\n")
                line_start = text.rindex("\n", i, m.end()) + 1
        else:
            tokens.append((m[0] if kind == "punct" else kind, m[0], line, i - line_start + 1))
        i = m.end()
    tokens.append(("EOF", "", line, i - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, gl_resolver: Callable, gu_resolver: Callable):
        _checked("an expression", str, (text,))
        self.tokens = _tokenize(text)
        self.pos = 0
        self.gl_resolver, self.gu_resolver = _checked(
            "a label resolver", Callable, (gl_resolver, gu_resolver))

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionError(
                f"expected {kind!r} but found {tok[1] or 'end of input'!r}",
                tok[2], tok[3],
            )
        return tok

    def num(self) -> HalfInt:
        tok = self.peek()
        if tok[0] == "-":
            self.next()
            return -self.num()
        intpart = self.expect("INT")
        value = HalfInt(int(intpart[1]))
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("INT")
            if den[1] != "2":
                raise ExpressionError(
                    f"only halves are allowed, found denominator {den[1]}",
                    den[2], den[3],
                )
            value = HalfInt.from_twice(int(intpart[1]))
        return value

    def delta(self) -> Segment:
        head = self.expect("IDENT")
        if head[1] != "d":
            raise ExpressionError(
                f"expected a segment 'd(...)' but found {head[1]!r}",
                head[2], head[3],
            )
        self.expect("(")
        a = self.num()
        self.expect(",")
        b = self.num()
        self.expect("@")
        name = self.expect("IDENT")
        self.expect(")")
        try:
            rho = self.gl_resolver(name[1])
        except UnknownLabelError as exc:
            raise ExpressionError(str(exc), name[2], name[3]) from None
        if b < a:
            raise ExpressionError(
                f"segment bounds {a} > {b}; the unit is written '1'",
                head[2], head[3],
            )
        try:
            return Segment(rho, a, b)
        except SegmentError as exc:
            raise ExpressionError(str(exc), head[2], head[3]) from None

    def glpart(self) -> tuple:
        tok = self.peek()
        if tok[0] == "INT":
            if tok[1] != "1":
                raise ExpressionError(
                    f"the only numeric glpart is the unit '1', found {tok[1]!r}",
                    tok[2], tok[3],
                )
            self.next()
            return ()
        segments = [self.delta()]
        while self.peek()[0] == "IDENT" and self.peek()[1] == "x":
            self.next()
            segments.append(self.delta())
        return tuple(segments)

    def anchor(self) -> Optional[GUCuspidalLabel]:
        if self.peek()[0] != "|x|":
            return None
        self.next()
        name = self.expect("IDENT")
        try:
            return self.gu_resolver(name[1])
        except UnknownLabelError as exc:
            raise ExpressionError(str(exc), name[2], name[3]) from None

    def finish(self):
        tok = self.peek()
        if tok[0] != "EOF":
            raise ExpressionError(
                f"unexpected trailing input {tok[1]!r}", tok[2], tok[3]
            )


def parse_expression(text: str, gl_resolver: Callable,
                     gu_resolver: Callable) -> Expression:
    """Parse ``glpart ("|x|" IDENT)?`` resolving labels via the callables."""
    p = _Parser(text, gl_resolver, gu_resolver)
    segments = p.glpart()
    anchor = p.anchor()
    p.finish()
    return Expression(segments, anchor)


def parse_tensor_target(text: str, gl_resolver: Callable, gu_resolver: Callable):
    """Parse a multiplicity target: glparts joined by ``(x)``, the last one
    optionally anchored.  Returns (list of segment tuples, anchor or None)."""
    p = _Parser(text, gl_resolver, gu_resolver)
    parts = [p.glpart()]
    while p.peek()[0] == "(x)":
        p.next()
        parts.append(p.glpart())
    anchor = p.anchor()
    p.finish()
    return parts, anchor


def target_term(parts, anchor) -> TensorTerm:
    """Assemble the parsed target factors into a tensor term."""
    factors = [GLMonomial(part) for part in parts]
    if anchor is not None:
        last = factors.pop()
        factors.append(GUClass(last.segments, anchor, TRIVIAL_TWIST))
    return TensorTerm(factors)
