"""Artifact (de)serialisation: one strict codec for every dataclass artifact.

:func:`encode` turns any artifact (report, ranking, scan or crawl result,
experiment result, bench trajectory, completeness manifest, ...) into a
JSON-compatible dict and :func:`decode` turns it back; :mod:`repro.store`
content-addresses exactly these encodings.  The format is declared on the
classes — a ``codec_header`` (:class:`Header`), :data:`SORTED_ROWS` and
:func:`transient` fields — never coded per type here (DESIGN.md §6.4).
Decode is strict: a missing field, a wrong ``kind`` or ``schema``, or a
JSON type that does not match the annotation (a bool never passes as an
int; an int passes as a float) raises the caller's error naming the field
and where it is.  :func:`check_field`/:func:`check_schema` are that one
check.  This module imports no measurement code.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import json
import pathlib
import typing
from types import MappingProxyType
from typing import Any, Callable, Dict, Mapping, Optional, Type, TypeVar, Union

from repro.errors import ReproError

PathLike = Union[str, pathlib.Path]
T = TypeVar("T")

#: Field metadata: encode a tuple-keyed dict's rows in key order.
SORTED_ROWS: Mapping[str, str] = MappingProxyType({"codec": "sorted-rows"})


def transient(factory: Optional[Callable[[], Any]] = None) -> Any:
    """A dataclass field the codec leaves out, defaulting to ``factory()``
    (or ``None``): an intermediate a decoded artifact goes without."""
    metadata = {"codec": "transient"}
    if factory is None:
        return dataclasses.field(default=None, metadata=metadata)
    return dataclasses.field(default_factory=factory, metadata=metadata)


@dataclasses.dataclass(frozen=True)
class Header:
    """The stamp a class's encoding carries, and the error its decode raises."""

    kind: Optional[str] = None
    schema: int = 1
    error: Type[ReproError] = ReproError


# -- the one check ------------------------------------------------------------ #


def _expect(value: Any, kinds: tuple, where: str, what: str, error: type) -> None:
    if not isinstance(value, kinds) or (type(value) is bool and bool not in kinds):
        raise error(f"{where}: {what} has type {type(value).__name__}")


def check_field(
    data: Mapping[str, Any],
    name: str,
    kinds: Optional[tuple],
    where: str,
    error: Type[ReproError] = ReproError,
) -> Any:
    """``data[name]``, whose type must be one of ``kinds`` (``None``: any).

    Raises ``error`` naming ``where`` and the field when ``data`` is not
    an object, the field is absent, or its value has the wrong type.
    """
    try:
        value = data[name]
    except KeyError:
        raise error(f"{where}: missing field {name!r}") from None
    except TypeError:
        raise error(f"{where}: expected an object, got {type(data).__name__}") from None
    if kinds is not None:
        _expect(value, kinds, where, f"field {name!r}", error)
    return value


def check_schema(
    data: Mapping[str, Any],
    version: int,
    where: str,
    error: Type[ReproError] = ReproError,
    kind: Optional[str] = None,
) -> None:
    """Check the ``kind`` (when given) and ``schema`` stamp of ``data``."""
    if kind is not None:
        found_kind = check_field(data, "kind", (str,), where, error)
        if found_kind != kind:
            raise error(f"{where}: expected artifact kind {kind!r}, got {found_kind!r}")
    found = check_field(data, "schema", (int,), where, error)
    if found > version:
        raise error(
            f"{where}: schema version {found} is newer than this build "
            f"(reads up to {version}); upgrade to load it"
        )
    if found < version:
        raise error(
            f"{where}: unsupported schema version {found} (this build reads {version})"
        )


# -- converters ---------------------------------------------------------------- #
#
# A converter is ``(kinds, enc, dec)``: the JSON types a value may have
# (``None``: any), ``enc(value)`` and ``dec(value, where, error)``.  A
# ``None`` enc or dec is the identity, skipped on the hot path.

_PRIMITIVES = {
    str: (str,),
    int: (int,),
    float: (int, float),
    bool: (bool,),
    type(None): (type(None),),
}


def _compile(tp: Any, name: str, sorted_rows: bool = False) -> tuple:
    """The converter for field ``name``, annotated ``tp``."""
    if tp is Any:
        return None, None, None
    if tp in _PRIMITIVES:
        return _PRIMITIVES[tp], None, None
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        return _enum(tp, name)
    if dataclasses.is_dataclass(tp):
        return (
            (dict,),
            lambda obj: _plan(tp).encode(obj),
            lambda value, where, error: _plan(tp).decode(value, f"{where}.{name}", error),
        )
    if tp is collections.Counter:
        tp = typing.Counter[str]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union and all(arg in _PRIMITIVES for arg in args):
        return tuple(kind for arg in args for kind in _PRIMITIVES[arg]), None, None
    if origin in (list, set) or (origin is tuple and args[1:] == (Ellipsis,)):
        return _sequence(origin, args[0], name)
    if origin in (dict, collections.Counter):
        key, value = (*args, int)[:2]
        if typing.get_origin(key) is tuple:
            return _rows(typing.get_args(key), value, name, sorted_rows)
        if key is str:
            return _mapping(value, name, origin)
    raise ReproError(f"codec: unsupported annotation {tp!r} for field {name!r}")


def _enum(cls: Type[enum.Enum], name: str) -> tuple:
    def decode_enum(value: Any, where: str, error: type) -> enum.Enum:
        try:
            return cls(value)
        except ValueError:
            raise error(
                f"{where}: field {name!r} has no {cls.__name__} value {value!r}"
            ) from None

    kinds = tuple(dict.fromkeys(type(member.value) for member in cls))
    return kinds, lambda member: member.value, decode_enum


def _sequence(origin: type, item: Any, name: str) -> tuple:
    kinds, enc, dec = _compile(item, name)
    what = f"field {name!r} item"

    def encode_items(values):
        items = list(values) if enc is None else [enc(value) for value in values]
        return sorted(items) if origin is set else items

    def decode_items(values: Any, where: str, error: type):
        items = []
        for value in values:
            if kinds is not None:
                _expect(value, kinds, where, what, error)
            items.append(value if dec is None else dec(value, where, error))
        return items if origin is list else origin(items)

    return (list,), encode_items, decode_items


def _mapping(value: Any, name: str, result: type) -> tuple:
    kinds, enc, dec = _compile(value, name)
    what = f"field {name!r} value"

    def encode_mapping(mapping):
        if enc is None:
            return dict(mapping)
        return {key: enc(item) for key, item in mapping.items()}

    def decode_mapping(mapping: Any, where: str, error: type):
        decoded = {}
        for key, item in mapping.items():
            if kinds is not None:
                _expect(item, kinds, where, what, error)
            decoded[key] = item if dec is None else dec(item, where, error)
        return decoded if result is dict else result(decoded)

    return (dict,), encode_mapping, decode_mapping


def _rows(key_types: tuple, value: Any, name: str, sorted_rows: bool) -> tuple:
    cells = [_compile(cell, name) for cell in (*key_types, value)]
    if any(enc is not None or dec is not None for _, enc, dec in cells[:-1]):
        raise ReproError(f"codec: tuple-key cells must be primitives ({name!r})")
    cell_kinds = [kinds for kinds, _, _ in cells]
    _, value_enc, value_dec = cells[-1]
    what = f"field {name!r} row cell"

    def encode_rows(mapping):
        items = mapping.items()
        if sorted_rows:
            items = sorted(items, key=lambda row: row[0])
        if value_enc is None:
            return [[*key, item] for key, item in items]
        return [[*key, value_enc(item)] for key, item in items]

    def decode_rows(rows: Any, where: str, error: type):
        decoded = {}
        for row in rows:
            if not isinstance(row, list) or len(row) != len(cells):
                raise error(f"{where}: field {name!r} row is not a {len(cells)}-cell list")
            for cell, kinds in zip(row, cell_kinds):
                if kinds is not None:
                    _expect(cell, kinds, where, what, error)
            item = row[-1]
            decoded[tuple(row[:-1])] = (
                item if value_dec is None else value_dec(item, where, error)
            )
        return decoded

    return (list,), encode_rows, decode_rows


# -- per-class plans ----------------------------------------------------------- #


class _Plan:
    """One class's field walk: built on first use, then reused."""

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.header: Optional[Header] = getattr(cls, "codec_header", None)
        self.where = (self.header and self.header.kind) or cls.__name__
        hints = typing.get_type_hints(cls)
        self.fields = []
        for spec in dataclasses.fields(cls):
            marker = spec.metadata.get("codec")
            if spec.init and marker != "transient":
                sorted_rows = marker == "sorted-rows"
                converter = _compile(hints[spec.name], spec.name, sorted_rows)
                self.fields.append((spec.name, *converter))

    def encode(self, obj: Any) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.header is not None:
            data["schema"] = self.header.schema
            if self.header.kind is not None:
                data["kind"] = self.header.kind
        for name, _kinds, enc, _dec in self.fields:
            value = getattr(obj, name)
            data[name] = value if enc is None else enc(value)
        return data

    def decode(self, data: Any, where: str, error: type) -> Any:
        if self.header is not None:
            check_schema(data, self.header.schema, where, error, self.header.kind)
        values = {}
        for name, kinds, _enc, dec in self.fields:
            value = check_field(data, name, kinds, where, error)
            values[name] = value if dec is None else dec(value, where, error)
        return self.cls(**values)


@functools.lru_cache(maxsize=None)
def _plan(cls: type) -> _Plan:
    return _Plan(cls)


def encode(obj: Any) -> Dict[str, Any]:
    """The JSON-compatible encoding of dataclass artifact ``obj``."""
    return _plan(type(obj)).encode(obj)


def decode(cls: Type[T], data: Any) -> T:
    """Strict inverse of :func:`encode`: rebuild a ``cls`` from ``data``."""
    plan = _plan(cls)
    error = plan.header.error if plan.header is not None else ReproError
    return plan.decode(data, plan.where, error)


# -- files --------------------------------------------------------------------- #


def save_json(data: Dict[str, Any], path: PathLike) -> None:
    """Write a serialised artifact to ``path``."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a serialised artifact from ``path``."""
    return json.loads(pathlib.Path(path).read_text())
