"""Parser and serializer for the `.udet` instance file format.

The format is line-oriented: one declaration per line, `#` starts a comment,
identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and free text is double-quoted.
Parsing reports the first failure with a 1-based line and column; duplicate
facts are an error rather than a silent overwrite.  `serialize_instance`
emits a canonical form whose re-parse is structurally identical.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import UdetError
from .model import (
    EPS_WEIGHT,
    HIGHER_BETTER,
    IDENT_RE,
    LOWER_BETTER,
    NUMERIC,
    ORDINAL,
    AttributeSchema,
    BoundConstraint,
    CriterionSpec,
    Fact,
    Instance,
    OrdinalScale,
    PinConstraint,
    PreferencePremise,
    validate,
)


@dataclass(frozen=True)
class SourceDocument:
    """Raw DSL text plus where it came from (file path or ``<memory>``)."""

    text: str
    origin: str = "<memory>"


class ParseError(UdetError):
    """First lexical, syntactic, or referential failure in a document."""

    def __init__(self, line: int, column: int, message: str,
                 snippet: str = "", origin: str = "<memory>"):
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet
        self.origin = origin
        super().__init__(f"{origin}:{line}:{column}: {message}")


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#.*)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<number>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct><=|>=|[(){}:,.=])
    """,
    re.VERBOSE,
)

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
_UNESCAPES = {"\\\\": "\\", '\\"': '"', "\\n": "\n"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "string" | "number" | "ident" | "punct"
    text: str
    column: int  # 1-based


def _unescape(line: int, col: int, raw: str, origin: str) -> str:
    body = raw[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        if body[i] == "\\":
            seq = body[i:i + 2]
            if seq not in _UNESCAPES:
                raise ParseError(line, col + 1 + i, f"unknown escape sequence '{seq}'",
                                 raw, origin)
            out.append(_UNESCAPES[seq])
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


def _escape(text: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def _tokenize(line_no: int, line: str, origin: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            ch = line[pos]
            msg = ("unterminated string literal" if ch == '"'
                   else f"unexpected character {ch!r}")
            raise ParseError(line_no, pos + 1, msg, line.strip(), origin)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _LineParser:
    """Consumes one line's token stream with precise error positions."""

    def __init__(self, line_no: int, tokens: list[_Token], raw: str, origin: str):
        self.line_no = line_no
        self.tokens = tokens
        self.raw = raw
        self.origin = origin
        self.i = 0

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        col = token.column if token else (
            self.tokens[-1].column + len(self.tokens[-1].text) if self.tokens else 1)
        snippet = token.text if token else self.raw.strip()
        return ParseError(self.line_no, col, message, snippet, self.origin)

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.error(f"expected {what} before end of line")
        self.i += 1
        return tok

    def ident(self, what: str) -> _Token:
        tok = self.take(what)
        if tok.kind != "ident":
            raise self.error(f"expected {what}, got '{tok.text}'", tok)
        return tok

    def keyword(self, word: str) -> _Token:
        tok = self.take(f"'{word}'")
        if tok.kind != "ident" or tok.text != word:
            raise self.error(f"expected '{word}', got '{tok.text}'", tok)
        return tok

    def punct(self, symbol: str) -> _Token:
        tok = self.take(f"'{symbol}'")
        if tok.kind != "punct" or tok.text != symbol:
            raise self.error(f"expected '{symbol}', got '{tok.text}'", tok)
        return tok

    def number(self, what: str = "a number") -> tuple[float, _Token]:
        tok = self.take(what)
        if tok.kind != "number":
            raise self.error(f"expected {what}, got '{tok.text}'", tok)
        return self.value(tok), tok

    def value(self, tok: _Token) -> float:
        """The number token's value; literals beyond float range are errors."""
        value = float(tok.text)
        if not math.isfinite(value):
            raise self.error("number out of range", tok)
        return value

    def string(self, what: str = "a quoted string") -> tuple[str, _Token]:
        tok = self.take(what)
        if tok.kind != "string":
            raise self.error(f"expected {what}, got '{tok.text}'", tok)
        return _unescape(self.line_no, tok.column, tok.text, self.origin), tok

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected trailing '{tok.text}'", tok)


class _Builder:
    """Accumulates declarations and enforces referential rules as lines arrive."""

    def __init__(self, origin: str):
        self.origin = origin
        self.instance_id: str | None = None
        self.question = ""
        self.question_seen = False
        self.scales: list[OrdinalScale] = []
        self.attributes: list[AttributeSchema] = []
        self.candidates: list[str] = []
        self.facts: dict[tuple[str, str], float | str] = {}
        self.criteria: list[CriterionSpec] = []
        self.constraints: list[PinConstraint | BoundConstraint] = []
        self.preferences: list[PreferencePremise] = []
        self.decisiveness_required = False
        self._pref_succ: dict[str, set[str]] = {}

    def scale_names(self) -> set[str]:
        return {s.name for s in self.scales}

    def attr_names(self) -> list[str]:
        return [a.name for a in self.attributes]

    def crit_names(self) -> set[str]:
        return {c.name for c in self.criteria}

    def _reachable(self, start: str, goal: str) -> bool:
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for nxt in sorted(self._pref_succ.get(node, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def add_preference(self, winner: str, loser: str) -> bool:
        """Record the premise; False when it would close a cycle."""
        if self._reachable(loser, winner):
            return False
        self.preferences.append(PreferencePremise(winner, loser))
        self._pref_succ.setdefault(winner, set()).add(loser)
        return True


def _parse_statement(p: _LineParser, b: _Builder) -> None:
    head = p.ident("a declaration keyword")
    kw = head.text

    if b.instance_id is None and kw != "instance":
        raise p.error("expected instance header as the first declaration", head)

    if kw == "instance":
        if b.instance_id is not None:
            raise p.error("duplicate instance header", head)
        name, tok = p.string("the instance id as a quoted string")
        if not IDENT_RE.match(name):
            raise p.error(f"instance id must be an identifier, got {name!r}", tok)
        b.instance_id = name
    elif kw == "question":
        if b.question_seen:
            raise p.error("duplicate question", head)
        b.question, _ = p.string("the question text")
        b.question_seen = True
    elif kw == "scale":
        name = p.ident("a scale name")
        if name.text in b.scale_names():
            raise p.error(f"duplicate scale '{name.text}'", name)
        p.punct(":")
        levels = [p.ident("a level name")]
        while p.peek() is not None:
            p.punct(",")
            levels.append(p.ident("a level name"))
        seen: set[str] = set()
        for lv in levels:
            if lv.text in seen:
                raise p.error(f"duplicate level '{lv.text}'", lv)
            seen.add(lv.text)
        if len(levels) < 2:
            raise p.error("a scale needs at least 2 levels", name)
        b.scales.append(OrdinalScale(name.text, tuple(t.text for t in levels)))
    elif kw == "attribute":
        name = p.ident("an attribute name")
        if name.text in b.attr_names():
            raise p.error(f"duplicate attribute '{name.text}'", name)
        p.punct(":")
        kind_tok = p.ident("'numeric' or 'ordinal'")
        scale_name: str | None = None
        if kind_tok.text == "numeric":
            kind = NUMERIC
        elif kind_tok.text == "ordinal":
            kind = ORDINAL
            p.punct("(")
            scale_tok = p.ident("a scale name")
            if scale_tok.text not in b.scale_names():
                raise p.error(f"undeclared scale '{scale_tok.text}'", scale_tok)
            scale_name = scale_tok.text
            p.punct(")")
        else:
            raise p.error(f"expected 'numeric' or 'ordinal', got '{kind_tok.text}'", kind_tok)
        p.punct(",")
        dir_tok = p.ident("'higher_better' or 'lower_better'")
        if dir_tok.text not in (HIGHER_BETTER, LOWER_BETTER):
            raise p.error(
                f"expected 'higher_better' or 'lower_better', got '{dir_tok.text}'", dir_tok)
        b.attributes.append(AttributeSchema(name.text, kind, dir_tok.text, scale_name))
    elif kw == "candidates":
        names = [p.ident("a candidate id")]
        while p.peek() is not None:
            p.punct(",")
            names.append(p.ident("a candidate id"))
        for tok in names:
            if tok.text in b.candidates:
                raise p.error(f"duplicate candidate '{tok.text}'", tok)
            b.candidates.append(tok.text)
    elif kw == "fact":
        cand = p.ident("a candidate id")
        if cand.text not in b.candidates:
            raise p.error(f"undeclared candidate '{cand.text}'", cand)
        p.punct(".")
        attr = p.ident("an attribute name")
        if attr.text not in b.attr_names():
            raise p.error(f"undeclared attribute '{attr.text}'", attr)
        p.punct("=")
        schema = next(a for a in b.attributes if a.name == attr.text)
        value: float | str
        tok = p.take("a value")
        if schema.kind == NUMERIC:
            if tok.kind != "number":
                raise p.error(f"numeric attribute '{attr.text}' requires a number", tok)
            value = p.value(tok)
        else:
            if tok.kind != "ident":
                raise p.error(f"ordinal attribute '{attr.text}' requires a level name", tok)
            scale = next(s for s in b.scales if s.name == schema.scale)
            if tok.text not in scale.levels:
                raise p.error(
                    f"'{tok.text}' is not a level of scale '{scale.name}'", tok)
            value = tok.text
        key = (cand.text, attr.text)
        if key in b.facts:
            raise p.error(f"duplicate fact for {cand.text}.{attr.text}", cand)
        b.facts[key] = value
    elif kw == "criterion":
        name = p.ident("a criterion name")
        if name.text in b.crit_names():
            raise p.error(f"duplicate criterion '{name.text}'", name)
        p.punct("{")
        weights: dict[str, float] = {}
        while True:
            attr = p.ident("an attribute name")
            if attr.text not in b.attr_names():
                raise p.error(f"undeclared attribute '{attr.text}'", attr)
            if attr.text in weights:
                raise p.error(f"duplicate weight for '{attr.text}'", attr)
            p.punct(":")
            w, wtok = p.number("a weight")
            if w < 0:
                raise p.error(f"weight for '{attr.text}' is negative", wtok)
            weights[attr.text] = w
            tok = p.take("',' or '}'")
            if tok.kind == "punct" and tok.text == "}":
                break
            if not (tok.kind == "punct" and tok.text == ","):
                raise p.error(f"expected ',' or '}}', got '{tok.text}'", tok)
        missing = [a for a in b.attr_names() if a not in weights]
        if missing:
            raise p.error(
                f"criterion '{name.text}' missing weight for: {', '.join(missing)}", name)
        total = sum(weights.values())
        if abs(total - 1.0) > EPS_WEIGHT:
            raise p.error(
                f"criterion '{name.text}' weights sum to {total!r}, expected 1", name)
        ordered = tuple((a, weights[a]) for a in b.attr_names())
        b.criteria.append(CriterionSpec(name.text, ordered))
    elif kw == "assume":
        which = p.ident("'criterion' or 'weight'")
        if which.text == "criterion":
            p.punct("=")
            crit = p.ident("a criterion name")
            if crit.text not in b.crit_names():
                raise p.error(f"undeclared criterion '{crit.text}'", crit)
            b.constraints.append(PinConstraint(crit.text))
        elif which.text == "weight":
            attr = p.ident("an attribute name")
            if attr.text not in b.attr_names():
                raise p.error(f"undeclared attribute '{attr.text}'", attr)
            op = p.take("'<=', '>=' or '='")
            if not (op.kind == "punct" and op.text in ("<=", ">=", "=")):
                raise p.error(f"expected '<=', '>=' or '=', got '{op.text}'", op)
            value, vtok = p.number("a bound value")
            if not (0.0 <= value <= 1.0):
                raise p.error(f"bound value {vtok.text} outside [0, 1]", vtok)
            b.constraints.append(BoundConstraint(attr.text, op.text, value))
        else:
            raise p.error(f"expected 'criterion' or 'weight', got '{which.text}'", which)
    elif kw == "prefer":
        winner = p.ident("a candidate id")
        if winner.text not in b.candidates:
            raise p.error(f"undeclared candidate '{winner.text}'", winner)
        p.keyword("over")
        loser = p.ident("a candidate id")
        if loser.text not in b.candidates:
            raise p.error(f"undeclared candidate '{loser.text}'", loser)
        if winner.text == loser.text:
            raise p.error("preference winner and loser must differ", loser)
        if not b.add_preference(winner.text, loser.text):
            raise p.error(
                f"preference {winner.text} over {loser.text} creates a cycle", winner)
    elif kw == "require":
        p.keyword("decision")
        if b.decisiveness_required:
            raise p.error("duplicate 'require decision'", head)
        b.decisiveness_required = True
    else:
        raise p.error(f"unknown declaration '{kw}'", head)

    p.finish()


def parse_instance(doc: SourceDocument | str) -> Instance:
    """Parse DSL text into a validated Instance.

    Raises ParseError on the first lexical, syntactic, or referential
    failure; never raises anything else, regardless of input text.
    """
    if isinstance(doc, str):
        doc = SourceDocument(doc)
    origin = doc.origin
    b = _Builder(origin)
    lines = doc.text.split("\n")
    for line_no, raw in enumerate(lines, start=1):
        tokens = _tokenize(line_no, raw, origin)
        if not tokens:
            continue
        _parse_statement(_LineParser(line_no, tokens, raw, origin), b)

    last = max(1, len(lines))
    if b.instance_id is None:
        raise ParseError(1, 1, "missing instance header", "", origin)
    if len(b.candidates) < 2:
        raise ParseError(last, 1,
                         f"at least 2 candidates required, found {len(b.candidates)}",
                         "", origin)
    if not b.attributes:
        raise ParseError(last, 1, "at least 1 attribute required", "", origin)
    for cand in b.candidates:
        for attr in b.attr_names():
            if (cand, attr) not in b.facts:
                raise ParseError(last, 1,
                                 f"incomplete fact matrix: missing fact {cand}.{attr}",
                                 "", origin)

    facts = tuple(Fact(cand, attr, b.facts[(cand, attr)])
                  for cand in b.candidates for attr in b.attr_names())
    instance = Instance(
        id=b.instance_id,
        question=b.question,
        candidates=tuple(b.candidates),
        scales=tuple(b.scales),
        attributes=tuple(b.attributes),
        facts=facts,
        criteria=tuple(b.criteria),
        constraints=tuple(b.constraints),
        preferences=tuple(b.preferences),
        decisiveness_required=b.decisiveness_required,
    )
    violations = validate(instance)
    if violations:  # inline checks above should make this unreachable
        raise ParseError(1, 1, f"invalid instance: {violations[0]}", "", origin)
    return instance


def format_number(value: float) -> str:
    """Canonical number rendering: up to 12 significant digits, no trailing zeros."""
    return f"{value:.12g}"


def serialize_instance(instance: Instance) -> str:
    """Render the canonical DSL form of a validated instance.

    Deterministic: declarations are ordered scales, attributes, candidates,
    facts (candidate-major, attributes in declared order), criteria,
    constraints, preferences.  `parse_instance(serialize_instance(i))` is
    structurally identical to `i`.
    """
    lines = [f'instance "{_escape(instance.id)}"']
    if instance.question:
        lines.append(f'question "{_escape(instance.question)}"')
    for scale in instance.scales:
        lines.append(f"scale {scale.name}: {', '.join(scale.levels)}")
    for attr in instance.attributes:
        kind = NUMERIC if attr.kind == NUMERIC else f"{ORDINAL}({attr.scale})"
        lines.append(f"attribute {attr.name}: {kind}, {attr.direction}")
    lines.append(f"candidates {', '.join(instance.candidates)}")
    attr_order = instance.attribute_names
    values = {(f.candidate, f.attribute): f.value for f in instance.facts}
    for cand in instance.candidates:
        for attr_name in attr_order:
            value = values[(cand, attr_name)]
            rendered = format_number(value) if isinstance(value, (int, float)) else value
            lines.append(f"fact {cand}.{attr_name} = {rendered}")
    for crit in instance.criteria:
        wmap = crit.weight_map
        body = ", ".join(f"{a}: {format_number(wmap[a])}" for a in attr_order)
        lines.append(f"criterion {crit.name} {{ {body} }}")
    for con in instance.constraints:
        if isinstance(con, PinConstraint):
            lines.append(f"assume criterion = {con.criterion}")
        else:
            lines.append(f"assume weight {con.attribute} {con.op} {format_number(con.value)}")
    for pref in instance.preferences:
        lines.append(f"prefer {pref.winner} over {pref.loser}")
    if instance.decisiveness_required:
        lines.append("require decision")
    return "\n".join(lines) + "\n"
