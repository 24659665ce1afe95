"""Parser and serializer for the `.udet` instance file format.

The format is line-oriented: one declaration per line, `#` starts a comment,
identifiers are as `model.IDENT` spells them and free text is double-quoted.
The ``instance`` header comes first; the declarations after it may come in
any order.  `serialize_instance` emits a canonical form whose re-parse is
structurally identical.

Lines are read two ways, which differ only in how they find the tokens.
A well-formed ``fact`` or ``criterion`` line, most of the lines of a
document, is read by one anchored match of the line grammar, whose pattern
fixes the line's shape, so a criterion's body splits at its commas and
colons.  Every other line goes to the token parser: `_tokenize` splits it
into tokens and `_LineParser` reads them, asking for each with `expect`,
which names what it wanted in the error.  So does a fact or criterion line
that the line grammar rejects or that holds a number beyond float range,
and any line before the header.  The token parser raises every grammar
error.

`_Builder` keeps, for each entity, the tokens the token parser handed over
for it, and none for a line the line grammar read.  Positions are needed
only when `model.validate` finds a violation: then the token parser alone
reads the whole document again, and the tokens it hands over name the
line, column and text of the error.

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

# Blanks, then one token; the alternatives are tried in order, and no two
# of them start with the same character but a number and the punctuation
# mark "." (".5" is a number).
_TOKEN_RE = re.compile(
    r"""[ \t\r]*
    (?: (?P<ident>""" + IDENT + r""")
      | (?P<number>""" + _NUMBER + r""")
      | (?P<punct><=|>=|[(){}:,.=])
      | (?P<string>"[^"\\\n]*(?:\\.[^"\\\n]*)*")
      | (?P<comment>\#.*)
      | (?P<bad>[^ \t\r\n])
    )""",
    re.VERBOSE,
)

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
_UNESCAPES = {escaped: ch for ch, escaped in _ESCAPES.items()}


class _Token:
    """One token of a line that the token parser reads."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # "string" | "number" | "ident" | "punct"
        self.text = text
        self.line = line  # 1-based
        self.column = column  # 1-based


def _unescape(tok: _Token, origin: str) -> str:
    """The text of a string token, its escape sequences replaced."""
    if "\\" not in tok.text:
        return tok.text[1:-1]

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
    """The line's tokens in one pass.  Each match of `_TOKEN_RE` skips the
    blanks before its token, and its last alternative catches any
    character that starts no token."""
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(line):
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind == "bad":
            ch = m[kind]
            msg = ("unterminated string literal" if ch == '"'
                   else f"unexpected character {ch!r}")
            raise ParseError(line_no, m.start(kind) + 1, msg, line.strip(), origin)
        tokens.append(_Token(kind, m[kind], line_no, m.start(kind) + 1))
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

    def take(self, what: str) -> _Token:
        """The next token, of any kind; `what` names it in the error."""
        i = self.i
        if i == len(self.tokens):
            raise self.error(f"expected {what} before end of line")
        self.i = i + 1
        return self.tokens[i]

    def expect(self, kind: str, what: str, text: tuple[str, ...] | None = None) -> _Token:
        """The next token, which must be of `kind` and, if `text` is given,
        spell one of its words; `what` names it in the error."""
        i = self.i
        if i == len(self.tokens):
            raise self.error(f"expected {what} before end of line")
        tok = self.tokens[i]
        if tok.kind != kind or text is not None and tok.text not in text:
            raise self.error(f"expected {what}, got '{tok.text}'", tok)
        self.i = i + 1
        return tok

    def punct(self, symbol: str) -> _Token:
        """The next token, which must be `symbol`; no other kind of token
        spells a punctuation mark."""
        tokens, i = self.tokens, self.i
        if i < len(tokens) and tokens[i].text == symbol:
            self.i = i + 1
            return tokens[i]
        return self.expect("punct", f"'{symbol}'", (symbol,))

    def comma_list(self, what: str) -> list[_Token]:
        """Identifiers separated by commas up to the end of the line."""
        items = [self.expect("ident", what)]
        while self.i < len(self.tokens):
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
        if self.i < len(self.tokens):
            tok = self.tokens[self.i]
            raise self.error(f"unexpected trailing '{tok.text}'", tok)


# The entity lists, in the order of `Instance`'s fields.
_COLLECTIONS = ("candidates", "scales", "attributes", "facts", "criteria",
                "constraints", "preferences")


class _Builder:
    """Records each declared entity and the tokens that declared it.

    `where` mirrors the entity lists key for key and index for index, with
    whatever `_parse_statement` handed over for each entity: its tokens, or
    None for a line the line grammar read.  ``where["id"]`` holds the
    header's token.
    """

    def __init__(self, instance_id: str | None = None):
        self.instance_id = instance_id
        self.question: str | None = None
        self.decisiveness_required = False
        self.entities: dict[str, list] = {key: [] for key in _COLLECTIONS}
        self.where: dict = {"id": None, **{key: [] for key in _COLLECTIONS}}

    def add(self, key: str, entity, tokens) -> None:
        """Add `entity`, declared by `tokens`."""
        self.entities[key].append(entity)
        self.where[key].append(tokens)

    def canonicalize(self) -> None:
        """Put facts in candidate-major, attribute order and each criterion's
        weights in attribute order, with their tokens in `where`.  Undeclared
        names sort last; equal keys keep their document order.  Lists
        already in order are kept."""
        cand_rank = _ranks(self.entities["candidates"])
        attr_rank = _ranks(a.name for a in self.entities["attributes"])
        cand_last, attr_last = len(cand_rank), len(attr_rank)
        facts, spots = self.entities["facts"], self.where["facts"]
        keys = [(cand_rank.get(f.candidate, cand_last), attr_rank.get(f.attribute, attr_last))
                for f in facts]
        if keys != sorted(keys):
            order = sorted(range(len(facts)), key=keys.__getitem__)
            self.entities["facts"] = [facts[i] for i in order]
            self.where["facts"] = [spots[i] for i in order]
        names = tuple(attr_rank)
        criteria = self.entities["criteria"]
        for i, crit in enumerate(criteria):
            weights = crit.weights
            if tuple(a for a, _ in weights) == names:
                continue
            order = sorted(range(len(weights)),
                           key=lambda j: attr_rank.get(weights[j][0], attr_last))
            criteria[i] = CriterionSpec(crit.name, tuple(weights[j] for j in order))
            spot = self.where["criteria"][i]
            if spot is not None:
                spot["weights"] = [spot["weights"][j] for j in order]


def _token_at(where: dict, path: tuple) -> _Token | None:
    """The token that declared the element at `path`, or None when the
    path names a whole collection or an entity but none of its parts."""
    node = where
    for step in path:
        node = node[step]
    return node if isinstance(node, _Token) else None


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
        b.instance_id = _unescape(tok, p.origin)
        b.where["id"] = tok
    elif kw == "question":
        if b.question is not None:
            raise p.error("duplicate question", head)
        b.question = _unescape(p.expect("string", "the question text"), p.origin)
    elif kw == "scale":
        name = p.expect("ident", "a scale name")
        p.punct(":")
        levels = p.comma_list("a level name")
        b.add("scales", OrdinalScale(name.text, tuple([t.text for t in levels])),
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
        b.add("facts", Fact(cand.text, attr.text, value),
              {"candidate": cand, "attribute": attr, "value": tok})
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
        b.add("criteria", CriterionSpec(name.text, tuple(weights)),
              {"name": name, "weights": tokens})
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
def _line_grammar() -> re.Pattern:
    """The pattern of a well-formed ``fact`` or ``criterion`` line.  Each
    token ends where the token parser ends it, since the pattern must go on
    with a character that cannot extend the token.  It is compiled on the
    first parse, not at import, which commands that parse nothing would pay
    for."""
    ws = r"[ \t\r]*"
    pair = rf"{IDENT}{ws}:{ws}{_NUMBER}"
    return re.compile(
        rf"{ws}(?:fact[ \t\r]+({IDENT}){ws}\.{ws}({IDENT}){ws}={ws}(?:({_NUMBER})|({IDENT}))"
        rf"|criterion[ \t\r]+({IDENT}){ws}\{{({ws}{pair}(?:{ws},{ws}{pair})*){ws}\}})"
        rf"{ws}(?:#.*)?")


def _read_declaration(raw: str, b: _Builder) -> bool:
    """Add the ``fact`` or ``criterion`` on the line to `b` and return True,
    if the line grammar reads it.  Its pattern fixes the line's shape, so a
    criterion's body splits at its commas and colons.  Any other line, a
    number beyond float range and a line before the header are left to the
    token parser, which raises every ParseError."""
    if b.instance_id is None:
        return False
    m = _line_grammar().fullmatch(raw)
    if m is None:
        return False
    candidate, attribute, number, level, name, body = m.groups()
    if name is None:
        if number is None:
            value: float | str = level
        else:
            value = float(number)
            if not math.isfinite(value):
                return False
        b.add("facts", Fact(candidate, attribute, value), None)
        return True
    weights: list[tuple[str, float]] = []
    for pair in body.split(","):
        attribute, weight = pair.split(":")
        value = float(weight)
        if not math.isfinite(value):
            return False
        weights.append((attribute.strip(), value))
    b.add("criteria", CriterionSpec(name, tuple(weights)), None)
    return True


def _read(lines: list[str], origin: str, grammar: bool) -> _Builder:
    """A builder of every entity the lines declare, in canonical order.
    With `grammar`, the line grammar reads the lines it can; the token
    parser reads the rest and raises every grammar error."""
    b = _Builder()
    for line_no, raw in enumerate(lines, start=1):
        if not raw or grammar and _read_declaration(raw, b):
            continue
        tokens = _tokenize(line_no, raw, origin)
        if tokens:
            _parse_statement(_LineParser(line_no, tokens, raw, origin), b)
    if b.instance_id is None:
        raise ParseError(1, 1, "missing instance header", "", origin)
    b.canonicalize()
    return b


def parse_instance(text: str, origin: str = "<memory>") -> Instance:
    """Parse DSL text into a validated Instance; `origin` names where the
    text came from (a file path or ``<memory>``) in every ParseError.

    Raises ParseError on the first grammar error, where the line loop meets
    it, even when an earlier line breaks a rule.  On a document that is
    grammatical, ParseError carries the message of the `validate` violation
    whose token comes first in the document, at that token's line and
    column; a violation of no single element (a count, a missing fact) sits
    at column 1 of the last line, and ties keep `validate`'s order.  The
    tokens come from a second read of the whole document by the token
    parser alone, made only when there is a violation.  An empty document
    is a missing header at 1:1.  Never raises anything else, regardless of
    input text.
    """
    lines = text.split("\n")
    b = _read(lines, origin, grammar=True)
    instance = Instance(b.instance_id, b.question or "", *map(tuple, b.entities.values()),
                        b.decisiveness_required)
    violations = validate(instance)
    if violations:
        where = _read(lines, origin, grammar=False).where
        tokens = [_token_at(where, v.path) for v in violations]
        positions = [(tok.line, tok.column) if tok else (len(lines), 1) for tok in tokens]
        first = min(range(len(violations)), key=positions.__getitem__)
        tok = tokens[first]
        raise ParseError(*positions[first], violations[first].message,
                         tok.text if tok else "", origin)
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
