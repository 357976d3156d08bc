"""Typed readers of the decoded JSON (or YAML) values of outside files and
replies. README's "Input files" table lists what each file's fields take.

Each reader takes a value, `where`, its key path, and `error`, the class
its caller raises. It returns the value, of the type it reads, or raises
`error` naming the path: `where` holds the file or object, then each key,
a string for a field and an int for an index, so `("x.json", "elements",
3, "page")` reads `x.json: elements[3].page`. The message is built only
when a reader raises. A number is a JSON int or float, never a bool.
"""

from __future__ import annotations

import functools
import json
import math
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path

_INF = math.inf


def path(where: tuple) -> str:
    """`where` as text: its first item, then its key path."""
    keys = "".join(
        f"[{key}]" if type(key) is int else f".{key}" if key.isidentifier() else f"[{key!r}]"
        for key in where[1:]
    )
    return f"{where[0]}: {keys.lstrip('.')}" if keys else str(where[0])


def _fail(where: tuple, error: type[Exception], rule: str, value: object) -> Exception:
    shown = repr(value)  # cut short: the value may be a whole array
    shown = shown if len(shown) <= 80 else shown[:77] + "..."
    return error(f"{path(where)} must be {rule}, got {shown}")


def load(file: str | Path, error: type[Exception], what: str) -> object:
    """The JSON value of the UTF-8 file `file`, a `what`."""
    try:
        return json.loads(Path(file).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError too
        raise error(f"cannot read {what} {file}: {exc}") from exc


def obj(value: object, where: tuple, error: type[Exception], known=None, required=frozenset()):
    """A JSON object whose keys are all in `known` (any, when None) and
    include every one of `required`."""
    if type(value) is not dict:
        raise _fail(where, error, "an object", value)
    if known is not None and not value.keys() <= known:
        raise error(f"{path(where)} has unknown fields {sorted(value.keys() - known)}")
    if not value.keys() >= required:
        raise error(f"{path(where)} is missing fields {sorted(required - value.keys())}")
    return value


def array(value: object, where: tuple, error: type[Exception], length: int | None = None) -> list:
    """A JSON array, of `length` items when that is given."""
    if type(value) is list and (length is None or len(value) == length):
        return value
    raise _fail(where, error, "an array" if length is None else f"an array of {length}", value)


def text(value: object, where: tuple, error: type[Exception]) -> str:
    if type(value) is str:
        return value
    raise _fail(where, error, "a string", value)


def texts(value: object, where: tuple, error: type[Exception]) -> list[str]:
    if type(value) is list and all(type(item) is str for item in value):
        return value
    raise _fail(where, error, "an array of strings", value)


def file_name(value: object, where: tuple, error: type[Exception]) -> str:
    """A string that names a file in a directory and nothing else: not
    empty, `.` or `..`, and without `/`, `\\` or NUL. A doc_id is one, as
    it names the document's output files."""
    if type(value) is str and value not in ("", ".", "..") and not {"/", "\\", "\0"} & set(value):
        return value
    raise _fail(where, error, "a file name (no '/', '\\' or NUL; not '', '.' or '..')", value)


def flag(value: object, where: tuple, error: type[Exception]) -> bool:
    if type(value) is bool:
        return value
    raise _fail(where, error, "true or false", value)


@functools.cache
def _members(enum: type[Enum]) -> dict[str, Enum]:
    return {member.value: member for member in enum}


def choice(value: object, where: tuple, error: type[Exception], enum: type[Enum]) -> Enum:
    """The member of `enum`, whose values are strings, that `value` is the value of."""
    member = _members(enum).get(value) if type(value) is str else None
    if member is None:
        raise _fail(where, error, f"one of {list(_members(enum))}", value)
    return member


def integer(
    value: object, where: tuple, error: type[Exception], least: int | None = None,
    most: int | None = None,
) -> int:
    """A JSON number with an integral value, as an int, at least `least`
    and at most `most`."""
    if type(value) is int:
        number = value
    elif type(value) is float and value.is_integer():
        number = int(value)
    else:
        raise _fail(where, error, "an integer", value)
    if least is not None and number < least:
        raise _fail(where, error, f">= {least}", value)
    if most is not None and number > most:
        raise _fail(where, error, f"<= {most}", value)
    return number


def number(
    value: object, where: tuple, error: type[Exception], least: float | None = None, strict=False
) -> float:
    """A finite JSON number as a float, at least `least`, or above it
    where `strict`. An int too large for a float is an error."""
    if type(value) is float:
        x = value
    elif type(value) is int:
        try:
            x = float(value)
        except OverflowError:
            raise error(f"{path(where)} holds a number too large for a float") from None
    else:
        raise _fail(where, error, "a number", value)
    if -_INF < x < _INF and (least is None or (least < x if strict else least <= x)):
        return x
    bound = "" if least is None else f"{'>' if strict else '>='} {least} and "
    raise _fail(where, error, f"{bound}finite", x)


def decimal(value: object, where: tuple, error: type[Exception]) -> Decimal:
    """A finite JSON number, or a string that `Decimal` reads as a finite
    number, as a Decimal: a string keeps its digits, trailing zeros too."""
    if type(value) in (int, float, str):
        try:
            parsed = Decimal(str(value))  # a float's str is its shortest repr
        except InvalidOperation:
            parsed = None
        if parsed is not None and parsed.is_finite():
            return parsed
    raise _fail(where, error, "a finite number or a numeric string", value)
