"""Parser and serializer for the `.udet` instance file format.

The format is line-oriented: one declaration per line, `#` starts a comment,
identifiers are as `model.IDENT` spells them and free text is double-quoted.
The ``instance`` header comes first; the declarations after it may come in
any order.  `serialize_instance` emits a canonical form whose re-parse is
structurally identical.

Lines are read two ways, which differ only in how they find the tokens.
A well-formed ``fact`` or ``criterion`` line, most of the lines of a
document, is read by one anchored match of its line grammar.  Every other
line goes to the token parser: `_tokenize` splits it and `_LineParser`
reads it, asking for each token with `expect`, which names what it wanted
in the error.  So does a fact or criterion line that the line grammar
rejects or that holds a number beyond float range, and any line before the
header.  Both readers hand a fact's or criterion's tokens to the same
`_Builder` method, which makes the entity and records where each part was
declared.  The token parser raises every grammar error.

This module holds the grammar and nothing else: tokens, keywords and
punctuation, the float range of number literals, the header-first rule and
the single ``instance``, ``question`` and ``require decision`` lines.  A
grammar error is raised at once, at its token.  Every other rule (unique
names, declared references, fact values, criterion weights, bound ranges,
acyclic preferences, counts and a complete fact matrix) lives in
`model.validate`, which runs once after the last line.
"""

from __future__ import annotations

import functools
import math
import re

from .errors import UdetError
from .model import (
    BOUND_OPS,
    HIGHER_BETTER,
    IDENT,
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
    format_number,
    validate,
)


class ParseError(UdetError):
    """A grammar error, or the rule violation that comes first in a document."""

    def __init__(self, line: int, column: int, message: str,
                 snippet: str = "", origin: str = "<memory>"):
        self.line = line
        self.column = column
        self.message = message
        self.snippet = snippet
        self.origin = origin
        super().__init__(f"{origin}:{line}:{column}: {message}")


_NUMBER = r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#.*)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<number>""" + _NUMBER + r""")
      | (?P<ident>""" + IDENT + r""")
      | (?P<punct><=|>=|[(){}:,.=])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
_UNESCAPES = {escaped: ch for ch, escaped in _ESCAPES.items()}


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # "string" | "number" | "ident" | "punct"
        self.text = text
        self.line = line  # 1-based
        self.column = column  # 1-based


def _unescape(tok: _Token, origin: str) -> str:
    """The text of a string token, its escape sequences replaced."""
    def replace(m: re.Match) -> str:
        seq = m.group()
        if seq not in _UNESCAPES:
            raise ParseError(tok.line, tok.column + 1 + m.start(),
                             f"unknown escape sequence '{seq}'", tok.text, origin)
        return _UNESCAPES[seq]
    return re.sub(r"\\.", replace, tok.text[1:-1])


def _escape(text: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def _tokenize(line_no: int, line: str, origin: str) -> list[_Token]:
    """The line's tokens in one pass; the last alternative of `_TOKEN_RE`
    catches any character that starts no token."""
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            ch = m.group()
            msg = ("unterminated string literal" if ch == '"'
                   else f"unexpected character {ch!r}")
            raise ParseError(line_no, m.start() + 1, msg, line.strip(), origin)
        tokens.append(_Token(kind, m.group(), line_no, m.start() + 1))
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

    def expect(self, kind: str, what: str, text: tuple[str, ...] | None = None) -> _Token:
        """The next token, which must be of `kind` and, if `text` is given,
        spell one of its words; `what` names it in the error."""
        tok = self.take(what)
        if tok.kind != kind or text is not None and tok.text not in text:
            raise self.error(f"expected {what}, got '{tok.text}'", tok)
        return tok

    def punct(self, symbol: str) -> _Token:
        return self.expect("punct", f"'{symbol}'", (symbol,))

    def comma_list(self, what: str) -> list[_Token]:
        """Identifiers separated by commas up to the end of the line."""
        items = [self.expect("ident", what)]
        while self.peek() is not None:
            self.punct(",")
            items.append(self.expect("ident", what))
        return items

    def value(self, tok: _Token) -> float:
        """The number token's value; literals beyond float range are errors."""
        value = float(tok.text)
        if not math.isfinite(value):
            raise self.error("number out of range", tok)
        return value

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise self.error(f"unexpected trailing '{tok.text}'", tok)


_COLLECTIONS = ("candidates", "scales", "attributes", "facts", "criteria",
                "constraints", "preferences")


class _Builder:
    """Records each declared entity and the tokens that declared it.

    `where` mirrors the instance being built, key for key and index for
    index, with a token in place of each name or value, so that a
    `Violation.path` looks up the token to report.
    """

    def __init__(self):
        self.instance_id: str | None = None
        self.question: str | None = None
        self.decisiveness_required = False
        self.entities: dict[str, list] = {key: [] for key in _COLLECTIONS}
        self.where: dict[str, object] = {key: [] for key in _COLLECTIONS}

    def add(self, key: str, entity, tokens) -> None:
        self.entities[key].append(entity)
        self.where[key].append(tokens)

    def fact(self, cand: _Token, attr: _Token, value_tok: _Token, value: float | str) -> None:
        self.add("facts", Fact(cand.text, attr.text, value),
                 {"candidate": cand, "attribute": attr, "value": value_tok})

    def criterion(self, name: _Token, weights: list[tuple[str, float]],
                  tokens: list[list[_Token]]) -> None:
        """`tokens` holds the attribute and weight tokens of each weight."""
        self.add("criteria", CriterionSpec(name.text, tuple(weights)),
                 {"name": name, "weights": tokens})

    def canonicalize(self) -> None:
        """Put facts in candidate-major, attribute order and each criterion's
        weights in attribute order.  Undeclared names sort last; equal keys
        keep their document order."""
        cand_rank = _ranks(self.entities["candidates"])
        attr_rank = _ranks(a.name for a in self.entities["attributes"])

        def attr_key(name: str) -> int:
            return attr_rank.get(name, len(attr_rank))

        self.entities["facts"], self.where["facts"] = _sort_together(
            self.entities["facts"], self.where["facts"],
            lambda f: (cand_rank.get(f.candidate, len(cand_rank)), attr_key(f.attribute)))
        criteria = self.entities["criteria"]
        for i, (crit, where) in enumerate(zip(criteria, self.where["criteria"])):
            weights, where["weights"] = _sort_together(
                crit.weights, where["weights"], lambda w: attr_key(w[0]))
            criteria[i] = CriterionSpec(crit.name, tuple(weights))

    def token_at(self, path: tuple) -> _Token | None:
        """The token that declared the element at `path`, or None when the
        path names a whole collection."""
        node = self.where
        for key in path:
            node = node[key]
            if isinstance(node, _Token):
                return node
        return None


def _sort_together(items, tokens, key) -> tuple[list, list]:
    """`items` stably sorted by `key`, and `tokens` in the same order."""
    order = sorted(range(len(items)), key=lambda i: key(items[i]))
    return [items[i] for i in order], [tokens[i] for i in order]


def _ranks(names) -> dict[str, int]:
    """Name -> index of its first occurrence."""
    ranks: dict[str, int] = {}
    for name in names:
        ranks.setdefault(name, len(ranks))
    return ranks


def _parse_statement(p: _LineParser, b: _Builder) -> None:
    head = p.expect("ident", "a declaration keyword")
    kw = head.text

    if b.instance_id is None and kw != "instance":
        raise p.error("expected instance header as the first declaration", head)

    if kw == "instance":
        if b.instance_id is not None:
            raise p.error("duplicate instance header", head)
        tok = p.expect("string", "the instance id as a quoted string")
        b.instance_id, b.where["id"] = _unescape(tok, p.origin), tok
    elif kw == "question":
        if b.question is not None:
            raise p.error("duplicate question", head)
        b.question = _unescape(p.expect("string", "the question text"), p.origin)
    elif kw == "scale":
        name = p.expect("ident", "a scale name")
        p.punct(":")
        levels = p.comma_list("a level name")
        b.add("scales", OrdinalScale(name.text, tuple(t.text for t in levels)),
              {"name": name, "levels": levels})
    elif kw == "attribute":
        name = p.expect("ident", "an attribute name")
        p.punct(":")
        kind = p.expect("ident", "'numeric' or 'ordinal'", (NUMERIC, ORDINAL))
        scale = None
        if kind.text == ORDINAL:
            p.punct("(")
            scale = p.expect("ident", "a scale name")
            p.punct(")")
        p.punct(",")
        direction = p.expect("ident", "'higher_better' or 'lower_better'",
                             (HIGHER_BETTER, LOWER_BETTER))
        b.add("attributes",
              AttributeSchema(name.text, kind.text, direction.text, scale and scale.text),
              {"name": name, "kind": kind, "direction": direction, "scale": scale})
    elif kw == "candidates":
        for tok in p.comma_list("a candidate id"):
            b.add("candidates", tok.text, tok)
    elif kw == "fact":
        cand = p.expect("ident", "a candidate id")
        p.punct(".")
        attr = p.expect("ident", "an attribute name")
        p.punct("=")
        tok = p.take("a value")
        if tok.kind == "number":
            value: float | str = p.value(tok)
        elif tok.kind == "ident":
            value = tok.text
        else:
            raise p.error(f"expected a number or a level name, got '{tok.text}'", tok)
        b.fact(cand, attr, tok, value)
    elif kw == "criterion":
        name = p.expect("ident", "a criterion name")
        p.punct("{")
        weights: list[tuple[str, float]] = []
        tokens: list[list[_Token]] = []
        while True:
            attr = p.expect("ident", "an attribute name")
            p.punct(":")
            wtok = p.expect("number", "a weight")
            weights.append((attr.text, p.value(wtok)))
            tokens.append([attr, wtok])
            if p.expect("punct", "',' or '}'", (",", "}")).text == "}":
                break
        b.criterion(name, weights, tokens)
    elif kw == "assume":
        which = p.expect("ident", "'criterion' or 'weight'", ("criterion", "weight"))
        if which.text == "criterion":
            p.punct("=")
            crit = p.expect("ident", "a criterion name")
            b.add("constraints", PinConstraint(crit.text), {"criterion": crit})
        else:
            attr = p.expect("ident", "an attribute name")
            op = p.expect("punct", "'<=', '>=' or '='", BOUND_OPS)
            vtok = p.expect("number", "a bound value")
            b.add("constraints", BoundConstraint(attr.text, op.text, p.value(vtok)),
                  {"attribute": attr, "op": op, "value": vtok})
    elif kw == "prefer":
        winner = p.expect("ident", "a candidate id")
        p.expect("ident", "'over'", ("over",))
        loser = p.expect("ident", "a candidate id")
        b.add("preferences", PreferencePremise(winner.text, loser.text),
              {"winner": winner, "loser": loser})
    elif kw == "require":
        p.expect("ident", "'decision'", ("decision",))
        if b.decisiveness_required:
            raise p.error("duplicate 'require decision'", head)
        b.decisiveness_required = True
    else:
        raise p.error(f"unknown declaration '{kw}'", head)

    p.finish()


@functools.cache
def _line_grammar() -> tuple[re.Pattern, re.Pattern, re.Pattern]:
    """The patterns of a well-formed ``fact`` line, ``criterion`` line and
    weight pair.  Each token ends where the token parser ends it, since
    the pattern must go on with a character that cannot extend the token.
    They are compiled on the first parse, not at import, which commands
    that parse nothing would pay for."""
    ws, end = r"[ \t\r]*", r"[ \t\r]*(?:#.*)?"
    fact = (rf"{ws}fact[ \t\r]+(?P<candidate>{IDENT}){ws}\.{ws}(?P<attribute>{IDENT})"
            rf"{ws}={ws}(?:(?P<number>{_NUMBER})|(?P<ident>{IDENT})){end}")
    pair = rf"{IDENT}{ws}:{ws}{_NUMBER}"
    criterion = (rf"{ws}criterion[ \t\r]+(?P<name>{IDENT}){ws}\{{"
                 rf"(?P<body>{ws}{pair}(?:{ws},{ws}{pair})*){ws}\}}{end}")
    pair = rf"(?P<attribute>{IDENT}){ws}:{ws}(?P<weight>{_NUMBER})"
    return re.compile(fact), re.compile(criterion), re.compile(pair)


def _token(m: re.Match, group: str, kind: str, line_no: int) -> _Token:
    """The token of `kind` that `group` of a line grammar match spans."""
    return _Token(kind, m.group(group), line_no, m.start(group) + 1)


def _read_declaration(line_no: int, raw: str, b: _Builder) -> bool:
    """Add the ``fact`` or ``criterion`` on the line to `b` and return True,
    if the line grammar reads it.  It finds the tokens that the token parser
    would find and hands them to the same `_Builder` method.  Any other
    line, a number beyond float range and a line before the header are left
    to the token parser, which raises every ParseError."""
    if b.instance_id is None:
        return False
    fact, criterion, pair = _line_grammar()
    m = fact.fullmatch(raw)
    if m is not None:
        if m.group("number") is None:
            value_tok = _token(m, "ident", "ident", line_no)
            value: float | str = value_tok.text
        else:
            value_tok = _token(m, "number", "number", line_no)
            value = float(value_tok.text)
            if not math.isfinite(value):
                return False
        b.fact(_token(m, "candidate", "ident", line_no), _token(m, "attribute", "ident", line_no),
               value_tok, value)
        return True
    m = criterion.fullmatch(raw)
    if m is None:
        return False
    weights: list[tuple[str, float]] = []
    tokens: list[list[_Token]] = []
    for w in pair.finditer(raw, *m.span("body")):
        weight = float(w.group("weight"))
        if not math.isfinite(weight):
            return False
        weights.append((w.group("attribute"), weight))
        tokens.append([_token(w, "attribute", "ident", line_no),
                       _token(w, "weight", "number", line_no)])
    b.criterion(_token(m, "name", "ident", line_no), weights, tokens)
    return True


def parse_instance(text: str, origin: str = "<memory>") -> Instance:
    """Parse DSL text into a validated Instance; `origin` names where the
    text came from (a file path or ``<memory>``) in every ParseError.

    Raises ParseError on the first grammar error, where the line loop meets
    it, even when an earlier line breaks a rule.  On a document that is
    grammatical, ParseError carries the message of the `validate` violation
    whose token comes first in the document, at that token's line and
    column; a violation of no single element (a count, a missing fact) sits
    at column 1 of the last line, and ties keep `validate`'s order.  An
    empty document is a missing header at 1:1.  Never raises anything else,
    regardless of input text.
    """
    b = _Builder()
    lines = text.split("\n")
    for line_no, raw in enumerate(lines, start=1):
        if _read_declaration(line_no, raw, b):
            continue
        tokens = _tokenize(line_no, raw, origin)
        if not tokens:
            continue
        _parse_statement(_LineParser(line_no, tokens, raw, origin), b)
    if b.instance_id is None:
        raise ParseError(1, 1, "missing instance header", "", origin)

    b.canonicalize()
    instance = Instance(
        id=b.instance_id,
        question=b.question or "",
        decisiveness_required=b.decisiveness_required,
        **{key: tuple(items) for key, items in b.entities.items()},
    )
    violations = validate(instance)
    if violations:
        def position(v):
            tok = b.token_at(v.path)
            return (tok.line, tok.column) if tok else (len(lines), 1)
        first = min(violations, key=position)
        tok = b.token_at(first.path)
        raise ParseError(*position(first), first.message, tok.text if tok else "", origin)
    return instance


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
