"""The on-disk JSON format of every artifact: one reader, one writer.

`read_json` turns any malformed file into a `ParseError` that names it:
invalid JSON, and a missing or ill-typed field the decoder trips over
(`KeyError`, `TypeError`, `ValueError`).  A `SafecutError` the decoder
raises itself keeps its type and gains the path too, unless it already
names a file: one nested in another (a query's bounds, say) keeps its own
name in the message.  `integer` reads an integer field without truncating a
fraction.  `canonical` is the one text of an object, sorted keys, two-space
indent and a trailing newline, so identical inputs give bitwise-identical
files.
"""

from __future__ import annotations

import json
from typing import Any, Callable, TypeVar

from .errors import ParseError, SafecutError

T = TypeVar("T")


def _naming(path: str, error: type, message: str) -> SafecutError:
    """`error` whose message starts with `path`, marked as naming its file."""
    exc = error(f"{path}: {message}")
    exc.path = path
    return exc


def read_json(path: str, decode: Callable[[Any], T]) -> T:
    """`decode` applied to the JSON value in `path`; ParseError if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise _naming(path, ParseError, f"invalid JSON ({exc})") from None
    try:
        return decode(obj)
    except SafecutError as exc:
        if getattr(exc, "path", None) is not None:  # a nested file's own error
            raise
        raise _naming(path, type(exc), str(exc)) from None
    except KeyError as exc:
        raise _naming(path, ParseError, f"missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise _naming(path, ParseError, str(exc)) from None


def integer(obj: dict, key: str) -> int:
    """``obj[key]`` as an int: a JSON integer, or a number with no fraction.

    A fraction, a boolean or a non-number is a ParseError, never truncated.
    """
    value = obj[key]
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"{key!r} must be an integer, got {value!r}")


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical(obj))
