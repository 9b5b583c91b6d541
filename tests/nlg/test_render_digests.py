"""Digests of ``Template.render`` over fixed templates and scopes.

The digests were recorded from the tree-walking evaluator that the
compiled templates replaced; a compiled template must render every
(template, scope) pair below to the same text, and fail with the same
error, as that evaluator did. Three groups:

* the templates of the ``tests/nlg`` unit and property tests, plus the
  corners of the language they leave out (loop variables read as
  values, a macro under an index, non-integer loop bounds, functions
  over lists, NULL and dates), once without macros and once under the
  tests' own macros;
* every label and macro of :func:`movies_translation_spec`;
* every label of :func:`generic_spec` over the movies graph, with the
  headings ``repro init-demo`` writes.
"""

import datetime
import hashlib
import re

import pytest

from repro.datasets import movies_graph, movies_translation_spec
from repro.nlg import MacroLibrary, generic_spec, parse_template

LANGUAGE_TEMPLATES = (
    '"hello"',
    "'hi there'",
    r'"say \"hi\""',
    "@NAME",
    "@name",
    "@MISSING",
    '"born on "+@BDATE+"."',
    '"a" "b" @X',
    "@XS",
    "@N",
    "@XS[2]",
    "@XS[9]",
    "@X[1]",
    "@XS[$i$]",
    "ARITYOF(@XS)",
    "UPPER(@X)",
    "LOWER(@X)",
    "FIRST(@XS)",
    "NOPE(@X)",
    '[i<ARITYOF(@TITLE)] {@TITLE[$i$]+" ("+@YEAR[$i$]+"), "}'
    '[i=ARITYOF(@TITLE)] {@TITLE[$i$]+" ("+@YEAR[$i$]+")."}',
    '[i<ARITYOF(@X)] {@X[$i$]+", "}[i=ARITYOF(@X)] {@X[$i$]+"."}',
    "[i<=ARITYOF(@X)] {@X[$i$]}",
    '[i<=ARITYOF(@X)] {[j<=ARITYOF(@X)] {@X[$j$]} "|"}',
    '[i<@X] {"x"}',
    "@GREET",
    "@X",
    "@OUTER",
    "@B",
    "@A",
    "@XS[0]",
    "@XS[3]",
    "@XS[$j$]",
    '[i<=3] {$i$ ":" @I "; "}',
    '[i<=ARITYOF(@XS)] {@XS[$i$] "/" @X[$i$] " "}',
    "[i=2] {@XS[$i$]}",
    "[i=0] {@XS[$i$]}",
    "[i<1] {@XS[$i$]}",
    "[i<=@N] {$i$}",
    "[i<=@FLAG] {$i$}",
    "@GREET[2]",
    "@GREET[$k$]",
    "ARITYOF(@GREET)",
    "UPPER(@XS)",
    "LOWER(@D)",
    "FIRST(@X)",
    "FIRST(@MISSING)",
    "UPPER(FIRST(@XS))",
    "ARITYOF(@NONE)",
    "@D @FLAG @F @NONE",
    "12 @N 3",
    '[x<=ARITYOF(@XS)] {[y<$x$] {"."} @XS[$x$] " "}',
    "ARITYOF()",
    "FIRST(@XS, @X)",
    '[i<=2] {NOPE(@X)} "tail"',
)

LANGUAGE_MACROS = {
    "GREET": '"Hello, "+@NAME+"!"',
    "X": '"macro"',
    "INNER": '"<"+@V+">"',
    "OUTER": '"["+@INNER+"]"',
    "A": '"first"',
    "B": '[i<=ARITYOF(@X)] {@X[$i$]+";"}',
}

#: the init-demo headings (``repro.cli``), which generic labels follow
DEMO_HEADINGS = {
    "THEATRE": "NAME",
    "MOVIE": "TITLE",
    "GENRE": "GENRE",
    "ACTOR": "ANAME",
    "DIRECTOR": "DNAME",
}

_VARIABLE = re.compile(r"@([A-Za-z_][A-Za-z_0-9]*)")


def _scopes(sources, macro_names):
    """Fixed scopes over every variable the sources name that is not a
    macro: scalars of each kind, lists of lengths 0-3, NULLs and
    mixed-case keys; the last scope binds the macro names too, so that
    variables shadow them."""
    named = {m.upper() for s in sources for m in _VARIABLE.findall(s)}
    names = sorted(named - set(macro_names))
    scalars = {}
    for i, name in enumerate(names):
        kind = i % 5
        if kind == 0:
            scalars[name] = f"v{name.lower()}"
        elif kind == 1:
            scalars[name] = 1990 + i
        elif kind == 2:
            scalars[name] = datetime.date(1935, 12, 1 + i % 28)
        elif kind == 3:
            scalars[name] = i % 2 == 0
        else:
            scalars[name] = 2.5 * i
    scopes = [
        {},
        {name: f"s {name}" for name in names},
        scalars,
        {name: None for name in names},
        {name.lower(): f"lower {name}" for name in names},
        {name.capitalize(): [f"m{name}", 7] for name in names},
    ]
    for length in range(4):
        scopes.append(
            {name: [f"{name}{k}" for k in range(length)] for name in names}
        )
    # lists whose lengths differ between variables, tuples among them
    scopes.append(
        {
            name: (
                tuple(range(i % 4))
                if i % 2
                else [f"q{k}" for k in range(i % 3)]
            )
            for i, name in enumerate(names)
        }
    )
    # integer scalars everywhere (loop bounds, indexes into scalars)
    scopes.append({name: i % 4 for i, name in enumerate(names)})
    scopes.append({name: f"bound {name}" for name in sorted(named)})
    return scopes


def _digest(templates, macros):
    """sha256 over every (template, scope) rendering, or the error's
    class and message where the render fails."""
    sources = [t.source for t in templates] + _macro_sources(macros)
    lines = []
    for s, scope in enumerate(_scopes(sources, macros.names())):
        for template in templates:
            try:
                out = template.render(scope, macros)
            except Exception as exc:  # noqa: BLE001 - the error is the output
                out = f"!{type(exc).__name__}: {exc}"
            lines.append(f"{s}\t{template.source}\t{out!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), len(lines)


def _macro_sources(macros):
    return [macros._macros[name].source for name in macros.names()]


def _language(macro_sources):
    macros = MacroLibrary()
    for name, source in macro_sources.items():
        macros.define(name, source)
    return [parse_template(s) for s in LANGUAGE_TEMPLATES], macros


def _spec_templates(spec):
    templates = [
        spec.projection_labels[k] for k in sorted(spec.projection_labels)
    ]
    templates += [spec.join_labels[k] for k in sorted(spec.join_labels)]
    templates += [spec.macros._macros[n] for n in sorted(spec.macros.names())]
    return templates, spec.macros


GROUPS = {
    "language": lambda: _language({}),
    "language with macros": lambda: _language(LANGUAGE_MACROS),
    "movies": lambda: _spec_templates(movies_translation_spec()),
    "generic": lambda: _spec_templates(
        generic_spec(movies_graph(), DEMO_HEADINGS)
    ),
}

#: per group: (sha256 of the renders, number of renders), recorded from
#: the tree-walking evaluator
EXPECTED = {
    "language": (
        "119c8645cebbe4ad39dcf461507d4cb53439e2c0f12ceca942a21883e59eb768",
        702,
    ),
    "language with macros": (
        "c37385b3817325d34c6205e74265fc4f626743f39b25f7b6270956917639709d",
        702,
    ),
    "movies": (
        "7866fe91bd690a12e36f19c3e8ee30978998bb8db7e40b1cfda063ad3f5b7cae",
        247,
    ),
    "generic": (
        "4a99bfcbfc99d7cda3b83b0c0bb307eeafe2d7653c50f17bfeead089fb9e5443",
        416,
    ),
}


@pytest.mark.parametrize("group", list(GROUPS))
def test_render_digest(group):
    templates, macros = GROUPS[group]()
    assert _digest(templates, macros) == EXPECTED[group]


@pytest.mark.parametrize("group", list(GROUPS))
def test_render_scope_matches_render(group):
    """The translator's entry point, handed the upper-cased scope,
    renders what ``render`` does with the caller's context."""
    templates, macros = GROUPS[group]()
    sources = [t.source for t in templates] + _macro_sources(macros)
    for scope in _scopes(sources, macros.names()):
        upper = {k.upper(): v for k, v in scope.items()}
        for template in templates:
            try:
                expected = template.render(scope, macros)
            except Exception as exc:  # noqa: BLE001 - compared by class
                with pytest.raises(type(exc)):
                    template.render_scope(upper, macros)
            else:
                assert template.render_scope(upper, macros) == expected
