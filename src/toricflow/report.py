"""Plain-text rendering of the JSON-plain documents the commands print."""

from json.encoder import encode_basestring_ascii as _quote

_SCALARS = {type(None), bool, int, str}
# A key or string holding C0, DEL, C1, U+2028, U+2029 or a lone surrogate is
# written as its JSON literal: no scene string starts a line or fails UTF-8
_BREAKS = frozenset(map(chr, [*range(0x20), *range(0x7f, 0xa0), 0x2028, 0x2029]))


def _scalar(value):
    if type(value) is str:
        return value if _BREAKS.isdisjoint(value) and (
            value.isascii() or not any("\ud800" <= c <= "\udfff" for c in value)) else _quote(value)
    if value is None or value is True or value is False:
        return "none" if value is None else "true" if value else "false"
    return str(value)


def _inline(values, rows=True):
    """A scalar list in brackets, or a nonempty list of scalar lists (if
    rows) joined by spaces, told by the items' exact types; else None."""
    types = set(map(type, values))
    if types <= {int}:
        return repr(values)
    if types <= _SCALARS:
        return "[" + ", ".join(map(_scalar, values)) + "]"
    if rows and types == {list}:
        parts = [_inline(row, False) for row in values]
        return None if None in parts else " ".join(parts)
    return None


def _walk(value, indent, lines):
    pad = "  " * indent
    if type(value) is not dict:  # a list of dicts: the dict branch writes scalar lists inline
        for item in value:
            lines.append(pad + "-")
            _walk(item, indent + 1, lines)
        return
    if not value:
        lines.append(pad + "(empty)")
    for key, item in value.items():
        line = (_scalar(item) if type(item) in _SCALARS
                else _inline(item) if type(item) is list else None)
        lines.append(pad + _scalar(key) + ":" + ("" if line is None else " " + line))
        if line is None:
            _walk(item, indent + 1, lines)


def render_text(document):
    """Deterministic plain-text rendering of the dict documents the commands
    print."""
    lines = []
    _walk(document, 0, lines)
    return "\n".join(lines) + "\n"
