"""ParseError: an input is malformed (exit code 2).  AnalysisError: the
inputs are well formed but the analysis cannot use them (exit code 3).  A
message says what failed and, where there is one, where.  Also the checks of
JSON document shapes, which raise ParseError, and the line rule of the
line-based inputs."""


class ParseError(Exception):
    pass


class AnalysisError(Exception):
    pass


JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
              bool: "true or false", int: "an integer"}
MISSING = object()  # `doc.get(key, MISSING)`: every field of a document is required


def expect_json(value, kind: type, what: str, *args):
    """`value` when it has the JSON type `kind`; otherwise a ParseError naming
    `what`, a str.format template that `args` fill in only then (per field,
    formatting would cost more than the check), or saying that it is MISSING."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        problem = "missing" if value is MISSING else f"not {JSON_TYPES[kind]}"
        raise ParseError(f"{what.format(*args)} is {problem}")
    return value


def expect_names(value, what: str, *args) -> list[str]:
    """`value` when it is a JSON array of strings; ParseError otherwise."""
    try:
        # TypeError on an item that is not a string; 10x faster than a loop
        "".join(expect_json(value, list, what, *args))
    except TypeError:
        raise ParseError(f"{what.format(*args)} is not an array of strings") from None
    return value


def line_number(text: str, pos: int) -> int:
    """The number of the line that holds `text[pos]`, by the rule of
    `content_lines`."""
    return text.count("\n", 0, pos) + 1


def content_lines(text: str):
    """(N, line) for each line of `text` that is neither blank nor a `#`
    comment, stripped of its whitespace.  Lines end at `\\n` alone, and N
    counts them from 1, so that `line N` of an error is the text's N-th such
    line."""
    for lineno, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped
