"""The template language of paper §5.3.

    "In order to use template labels or to register new ones, we use a
    simple language for templates that supports variables, loops,
    functions, and macros."

The concrete syntax follows the paper's example::

    DEFINE MOVIE_LIST as
    [i<ARITYOF(@TITLE)] {@TITLE[$i$]+" ("+@YEAR[$i$]+"), "}
    [i=ARITYOF(@TITLE)] {@TITLE[$i$]+" ("+@YEAR[$i$]+"). "}

* ``@NAME`` — a variable bound to an attribute value (a scalar, or the
  list of values joined in); ``@NAME[$i$]`` indexes a list (1-based);
* ``"literal"`` — string literal, concatenated with ``+``;
* ``ARITYOF(@X)`` — the number of values bound to ``@X``; ``UPPER``,
  ``LOWER`` and ``FIRST`` are also provided;
* ``[i<expr] {body}`` — a guarded loop block: ``i`` ranges over
  ``1..arity`` and *body* is emitted for every ``i`` satisfying the
  guard (``<``, ``<=`` or ``=``), giving the classic
  "a, b, and c." separator idiom;
* ``@MACRO`` — a macro (a named template registered with ``DEFINE``)
  expands in the current context; variables take priority on collision.

Evaluation never fails on missing data: an unbound variable renders as
the empty string (answers are partial by design — a précis "may be
incomplete in many ways").

A template is compiled when it is parsed: each node becomes a closure,
so rendering neither walks a tree nor re-cases names. Misuse that
depends on the scope or the function table (an unknown function, an
unbound loop variable, a loop bound that is not an integer) is still
reported by the render that reaches it, not by the parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from ..relational.datatypes import render

__all__ = [
    "TemplateError",
    "Template",
    "MacroLibrary",
    "parse_template",
    "parse_definitions",
]


class TemplateError(ValueError):
    """Malformed template source or evaluation misuse."""


# ------------------------------------------------------------------ lexer

_TOKEN_RE = re.compile(
    r"""
      (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
    | (?P<var>@[A-Za-z_][A-Za-z_0-9]*)
    | (?P<loopvar>\$[A-Za-z_][A-Za-z_0-9]*\$)
    | (?P<number>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<punct>[\[\]{}()<>=+,])
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str
    value: str
    pos: int


def _lex(source: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise TemplateError(
                f"unexpected character {source[pos]!r} at offset {pos}"
            )
        kind = match.lastgroup
        assert kind is not None
        if kind != "ws":
            tokens.append(_Tok(kind, match.group(), match.start()))
        pos = match.end()
    return tokens


# ------------------------------------------------------------------ AST


@dataclass(frozen=True)
class _Literal:
    text: str


@dataclass(frozen=True)
class _Number:
    value: int


@dataclass(frozen=True)
class _VarRef:
    name: str
    index: Optional[Union[str, int]] = None  # loop-variable name or int


@dataclass(frozen=True)
class _FuncCall:
    name: str
    args: tuple


@dataclass(frozen=True)
class _Loop:
    var: str
    op: str  # '<', '<=', '='
    bound: Any  # expression node
    body: tuple  # expression nodes, concatenated


_Node = Union[_Literal, _Number, _VarRef, _FuncCall, _Loop]


# ------------------------------------------------------------------ parser


class _Parser:
    def __init__(self, tokens: list[_Tok]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> Optional[_Tok]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> _Tok:
        token = self._peek()
        if token is None:
            raise TemplateError("unexpected end of template")
        self._pos += 1
        return token

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[_Tok]:
        token = self._peek()
        if token and token.kind == kind and (value is None or token.value == value):
            self._pos += 1
            return token
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> _Tok:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            raise TemplateError(
                f"expected {value or kind}, got {token.value!r} "
                f"at offset {token.pos}"
            )
        return token

    # template := (loop | expr)*  — implicit concatenation
    def parse_template(self) -> tuple:
        items: list[_Node] = []
        while self._peek() is not None:
            token = self._peek()
            assert token is not None
            if token.kind == "punct" and token.value == "[":
                items.append(self._parse_loop())
            else:
                items.append(self._parse_expr())
                # optional '+' between adjacent expressions
                self._accept("punct", "+")
        return tuple(items)

    def _parse_loop(self) -> _Loop:
        self._expect("punct", "[")
        var = self._expect("ident").value
        op_tok = self._next()
        if op_tok.kind != "punct" or op_tok.value not in ("<", "="):
            raise TemplateError(
                f"expected loop comparator at offset {op_tok.pos}"
            )
        op = op_tok.value
        if op == "<" and self._accept("punct", "="):
            op = "<="
        bound = self._parse_expr()
        self._expect("punct", "]")
        self._expect("punct", "{")
        body: list[_Node] = []
        while True:
            token = self._peek()
            if token is None:
                raise TemplateError("unterminated loop body")
            if token.kind == "punct" and token.value == "}":
                self._next()
                break
            if token.kind == "punct" and token.value == "[":
                body.append(self._parse_loop())
            else:
                body.append(self._parse_expr())
                self._accept("punct", "+")
        return _Loop(var, op, bound, tuple(body))

    def _parse_expr(self) -> _Node:
        token = self._next()
        if token.kind == "string":
            raw = token.value[1:-1]
            text = re.sub(r"\\(.)", r"\1", raw)
            return _Literal(text)
        if token.kind == "number":
            return _Number(int(token.value))
        if token.kind == "var":
            name = token.value[1:]
            index: Optional[Union[str, int]] = None
            if self._accept("punct", "["):
                idx_tok = self._next()
                if idx_tok.kind == "loopvar":
                    index = idx_tok.value.strip("$")
                elif idx_tok.kind == "number":
                    index = int(idx_tok.value)
                else:
                    raise TemplateError(
                        f"bad index at offset {idx_tok.pos}"
                    )
                self._expect("punct", "]")
            return _VarRef(name, index)
        if token.kind == "ident":
            # function call
            self._expect("punct", "(")
            args: list[_Node] = []
            if not self._accept("punct", ")"):
                args.append(self._parse_expr())
                while self._accept("punct", ","):
                    args.append(self._parse_expr())
                self._expect("punct", ")")
            return _FuncCall(token.value.upper(), tuple(args))
        if token.kind == "loopvar":
            return _VarRef(token.value.strip("$"), None)
        raise TemplateError(
            f"unexpected token {token.value!r} at offset {token.pos}"
        )


# ------------------------------------------------------------------ compiler
#
# Every closure takes (scope, macros), the scope keyed by upper-case
# names. A value closure returns the node's value; a text closure
# returns what the node writes.

_Closure = Callable[[dict, "MacroLibrary"], Any]


def _as_list(value: Any) -> list:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _arity(value: Any) -> int:
    return len(_as_list(value))


_FUNCTIONS: dict[str, Callable] = {
    "ARITYOF": _arity,
    "UPPER": lambda v: render(v).upper(),
    "LOWER": lambda v: render(v).lower(),
    "FIRST": lambda v: (_as_list(v) or [""])[0],
}


def _text_of(value: Any) -> str:
    """What a value writes: a list writes its items, comma separated."""
    if type(value) is str:
        return value
    if isinstance(value, (list, tuple)):
        return ", ".join([render(v) for v in value])
    return render(value)


def _constant(value: Any) -> _Closure:
    return lambda scope, macros: value


def _compile_value(node: _Node) -> _Closure:
    if isinstance(node, _Literal):
        return _constant(node.text)
    if isinstance(node, _Number):
        return _constant(node.value)
    if isinstance(node, _VarRef):
        return _compile_variable(node)
    if isinstance(node, _FuncCall):
        return _compile_call(node)
    raise TemplateError(f"unknown node {node!r}")  # pragma: no cover


def _compile_variable(node: _VarRef) -> _Closure:
    """A variable reads the scope; a name the scope does not bind
    expands the macro of that name, if any (an index is then ignored),
    and otherwise reads as NULL. An index is 1-based; out of range
    reads as the empty string."""
    name = node.name.upper()
    index = node.index
    if index is None:

        def variable(scope, macros):
            if name in scope:
                return scope[name]
            return macros._expansion(name, scope)

        return variable
    loop_variable = index.upper() if isinstance(index, str) else None

    def item(scope, macros):
        if name in scope:
            value = scope[name]
        else:
            value = macros._expansion(name, scope)
            if value is not None:
                return value
        if loop_variable is None:
            position = index
        else:
            position = scope.get(loop_variable)
            if not isinstance(position, int):
                raise TemplateError(f"loop variable ${index}$ unbound")
        if value is None:
            return ""
        if isinstance(value, (list, tuple)):
            return value[position - 1] if 1 <= position <= len(value) else ""
        return value if position == 1 else ""  # a scalar is a 1-list

    return item


def _compile_call(node: _FuncCall) -> _Closure:
    name = node.name
    func = _FUNCTIONS.get(name)
    if func is None:

        def unknown(scope, macros):
            raise TemplateError(f"unknown function {name}")

        return unknown
    args = [_compile_value(arg) for arg in node.args]
    return lambda scope, macros: func(*[arg(scope, macros) for arg in args])


def _compile_loop(node: _Loop) -> _Closure:
    """The body once per index the guard admits, the loop variable
    bound to the index in a copy of the scope."""
    bound_of = _compile_value(node.bound)
    body = _compile_text(node.body)
    variable = node.var.upper()
    op = node.op

    def loop(scope, macros):
        bound = bound_of(scope, macros)
        if not isinstance(bound, int):
            raise TemplateError("loop bound must evaluate to an integer")
        if op == "<":
            indices = range(1, bound)
        elif op == "<=":
            indices = range(1, bound + 1)
        else:  # '='
            indices = range(bound, bound + 1) if bound >= 1 else range(0)
        if not indices:
            return ""
        inner = dict(scope)
        out = []
        for i in indices:
            inner[variable] = i
            out.append(body(inner, macros))
        return "".join(out)

    return loop


def _compile_text(nodes: Sequence[_Node]) -> _Closure:
    """The text closure of a node sequence: its nodes' texts, joined."""
    parts = []
    for node in nodes:
        if isinstance(node, _Literal):
            parts.append(_constant(node.text))
        elif isinstance(node, _Number):
            parts.append(_constant(str(node.value)))
        elif isinstance(node, _Loop):
            parts.append(_compile_loop(node))  # a loop's value is text
        else:
            value_of = _compile_value(node)
            parts.append(
                lambda scope, macros, value_of=value_of: _text_of(
                    value_of(scope, macros)
                )
            )
    if len(parts) == 1:
        return parts[0]
    return lambda scope, macros: "".join(
        [part(scope, macros) for part in parts]
    )


class Template:
    """A parsed template, compiled into closures when it is parsed."""

    def __init__(self, nodes: tuple, source: str = ""):
        self.source = source
        self._text = _compile_text(nodes)

    def render(
        self,
        context: dict[str, Any],
        macros: Optional["MacroLibrary"] = None,
    ) -> str:
        """Evaluate against *context* (variable name → scalar or list;
        names are case-insensitive)."""
        scope = {k.upper(): v for k, v in context.items()}
        return self._text(scope, macros or _EMPTY_MACROS)

    def render_scope(
        self,
        scope: dict[str, Any],
        macros: Optional["MacroLibrary"] = None,
    ) -> str:
        """:meth:`render` for a *scope* whose names are upper-case
        already, as the translator builds them once per relation."""
        return self._text(scope, macros or _EMPTY_MACROS)

    def __repr__(self):
        return f"Template({self.source!r})"


class MacroLibrary:
    """Named templates registered with ``DEFINE name as template``."""

    def __init__(self):
        self._macros: dict[str, Template] = {}

    def define(self, name: str, template: Union[str, Template]) -> None:
        if isinstance(template, str):
            template = parse_template(template)
        self._macros[name.upper()] = template

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._macros

    def expand(self, name: str, scope: dict[str, Any]) -> str:
        template = self._macros.get(name.upper())
        if template is None:
            raise TemplateError(f"unknown macro {name}")
        return template.render(scope, self)

    def _expansion(self, name: str, scope: dict[str, Any]) -> Optional[str]:
        """Macro *name* expanded in *scope* (both upper-case already),
        or None when no macro has that name."""
        template = self._macros.get(name)
        return None if template is None else template._text(scope, self)

    def names(self) -> tuple[str, ...]:
        return tuple(self._macros)

    def __len__(self):
        return len(self._macros)


_EMPTY_MACROS = MacroLibrary()


def parse_template(source: str) -> Template:
    """Parse template source into a :class:`Template`."""
    parser = _Parser(_lex(source))
    return Template(parser.parse_template(), source)


_DEFINE_RE = re.compile(
    r"^\s*DEFINE\s+([A-Za-z_][A-Za-z_0-9]*)\s+as\s+(.*)$",
    re.IGNORECASE | re.DOTALL,
)


def parse_definitions(source: str) -> MacroLibrary:
    """Parse a block of ``DEFINE name as …`` declarations.

    Definitions are separated by lines starting with ``DEFINE``; the body
    of each runs until the next ``DEFINE`` (or end of input) and may span
    multiple lines.
    """
    library = MacroLibrary()
    chunks: list[str] = []
    for line in source.splitlines():
        if re.match(r"^\s*DEFINE\s", line, re.IGNORECASE):
            chunks.append(line)
        elif chunks:
            chunks[-1] += "\n" + line
        elif line.strip():
            raise TemplateError(f"expected DEFINE, got {line.strip()!r}")
    for chunk in chunks:
        match = _DEFINE_RE.match(chunk)
        if match is None:
            raise TemplateError(f"malformed definition: {chunk.strip()[:60]!r}")
        library.define(match.group(1), parse_template(match.group(2)))
    return library
