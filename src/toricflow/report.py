"""Plain-text rendering of the JSON-plain documents the commands print."""


def _scalar(value):
    if value is None:
        return "none"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _is_scalar(value):
    return value is None or isinstance(value, (str, int, bool))


def _inline(values):
    return "[" + ", ".join(_scalar(v) for v in values) + "]"


def _all_scalar(values):
    return all(_is_scalar(v) for v in values)


def _walk(value, indent, lines):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            lines.append(pad + "(empty)")
            return
        for key, item in value.items():
            if _is_scalar(item):
                lines.append("%s%s: %s" % (pad, key, _scalar(item)))
            elif isinstance(item, list) and _all_scalar(item):
                lines.append("%s%s: %s" % (pad, key, _inline(item)))
            elif (isinstance(item, list) and item
                  and all(isinstance(x, list) and _all_scalar(x) for x in item)):
                lines.append("%s%s: %s" % (pad, key,
                                           " ".join(_inline(x) for x in item)))
            else:
                lines.append("%s%s:" % (pad, key))
                _walk(item, indent + 1, lines)
    else:  # a list of dicts: the dict branch writes scalar lists inline
        for item in value:
            lines.append(pad + "-")
            _walk(item, indent + 1, lines)


def render_text(document):
    """Deterministic plain-text rendering of the dict documents the commands
    print."""
    lines = []
    _walk(document, 0, lines)
    return "\n".join(lines) + "\n"
