"""Source expressions: the text that says where a mapped value comes from.

Broker request maps and aggregation, scenario service bindings, and process
step inputs and outputs all fill values from sources such as ``req.userId``
or ``lit:OK``. Each site names the scopes it allows and parses its sources
once, when its structure is loaded or registered; resolve() then only walks the path.

    req.FIELD     a field of the incoming request
    lit:TEXT      the text itself
    call:ID.F     field F of the decoded reply of broker call ID
    eff.NAME.K..  a value an earlier binding effect stored, then nested keys
    var:NAME      a process instance variable
    resp.FIELD    a field of a process step's service response
"""

from __future__ import annotations

# scope -> (prefix, maxsplit of the rest into path parts; None keeps it whole)
_SYNTAX = {
    "req": ("req.", None),
    "lit": ("lit:", None),
    "call": ("call:", 1),
    "eff": ("eff.", -1),
    "var": ("var:", None),
    "resp": ("resp.", None),
}

MISSING = object()


class Source(str):
    """The source text itself, so it compares equal to what was written,
    carrying its parsed scope and reference path."""

    def __new__(cls, text: str, scope: str, path: tuple[str, ...]) -> "Source":
        self = super().__new__(cls, text)
        self.scope = scope
        self.path = path
        return self


def parse(text, scopes: tuple[str, ...], error: type[Exception], where: str) -> Source:
    """Parse text as a source in one of scopes, or raise error."""
    if isinstance(text, str):
        for scope in scopes:
            prefix, maxsplit = _SYNTAX[scope]
            if text.startswith(prefix):
                rest = text[len(prefix):]
                path = (rest,) if maxsplit is None else tuple(rest.split(".", maxsplit))
                if scope != "call" or len(path) == 2:
                    return Source(text, scope, path)
    raise error(f"{where}: bad source {text!r}")


def resolve(source: Source, scopes: dict):
    """Walk source's path through scopes[source.scope]; MISSING if a step of
    the path is absent or not a dict."""
    if source.scope == "lit":
        return source.path[0]
    value = scopes[source.scope]
    for key in source.path:
        if not isinstance(value, dict) or key not in value:
            return MISSING
        value = value[key]
    return value
