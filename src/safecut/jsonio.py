"""The on-disk JSON format of every artifact: one reader, one writer.

`read_json` turns any malformed file into a `ParseError` that names it:
invalid JSON, and a missing or ill-typed field the decoder trips over
(`KeyError`, `TypeError`, `ValueError`).  A `SafecutError` the decoder
raises itself passes through unchanged, so a file nested in another (a
query's bounds, say) keeps its own name in the message.  `canonical` is the
one text of an object, sorted keys, two-space indent and a trailing newline,
so identical inputs give bitwise-identical files.
"""

from __future__ import annotations

import json
from typing import Any, Callable, TypeVar

from .errors import ParseError

T = TypeVar("T")


def read_json(path: str, decode: Callable[[Any], T]) -> T:
    """`decode` applied to the JSON value in `path`; ParseError if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    try:
        return decode(obj)
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical(obj))
