"""The RunReport wire format: tagged JSON for every result payload.

:class:`~repro.api.report.RunReport` is the value every consumer of
this package exchanges — the CLI prints it, ``run_report_trials``
aggregates it, and the experiment service (:mod:`repro.service`)
persists it and sends it over HTTP. JSON is the only interchange the service's
stdlib-only constraint allows, but reports carry values JSON does not:
numpy arrays (``MISResult.mis_mask``), sets (``MISResult.mis``),
tuples, and nested frozen dataclasses (the
:class:`~repro.engine.policy.ExecutionPolicy` echo, a
:class:`~repro.faults.FaultSchedule`, per-round history records).

The codec here round-trips all of them through *tagged objects*: any
value JSON cannot express natively encodes as a dict carrying the
reserved :data:`TAG` key naming its kind: ``ndarray``, ``bytes``,
``set``, ``frozenset``, ``tuple``, ``rows``, ``dict`` or
``dataclass``. Decoding is closed-world — dataclasses are
reconstructed only from modules inside this package (``repro.*``), so
a wire document can never instantiate arbitrary classes. The
contract, pinned by ``tests/test_service.py``, is::

    values_equal(decode_value(json.loads(json.dumps(encode_value(v)))), v)

and for whole reports ``RunReport.from_json(r.to_json()) == r`` — the
report's own outcome equality, which is exactly the service store's
cache-hit check.

ndarrays travel as base64 of their contiguous bytes plus dtype and
shape — exact for every dtype, including float payloads (no decimal
round-trip is involved). A *table* — a non-empty tuple of equal-length,
non-empty tuples whose every column holds only Python ints (within
int64) or only Python floats, like a fault schedule's event lists —
travels as ``"rows"`` with one int64 or float64 array per column and
decodes to the identical tuple. Every other tuple travels item-wise as
``"tuple"``, the form older documents wrote tables in, which still
decodes. Scalars stay native JSON: Python floats round-trip exactly
through ``json`` (shortest-repr), and numpy scalar types flatten to
their Python equivalents (``values_equal`` compares them equal, which
is the pinned contract — the wire format does not promise to preserve
*scalar* numpy types, only values and array payloads).
"""

from __future__ import annotations

import base64
import dataclasses
import importlib
import json
from typing import Any

import numpy as np

from ..radio.errors import ProtocolError

__all__ = [
    "TAG",
    "decode_value",
    "encode_value",
    "report_from_json",
    "report_to_json",
]

#: Reserved key marking a tagged object. A plain dict that happens to
#: carry this key is itself escaped as a tagged ``"dict"`` object, so
#: the namespace cannot collide.
TAG = "__repro__"


def encode_value(value: Any) -> Any:
    """Encode ``value`` into a JSON-serializable structure.

    Natively JSON-able scalars pass through (numpy scalars flatten to
    Python ones); ndarrays, sets, frozensets, tuples (a table as
    ``"rows"``), bytes, and dataclass instances become tagged objects;
    lists and string-keyed dicts recurse. Anything else refuses with
    :class:`~repro.radio.errors.ProtocolError` naming the type — a
    silent ``str()`` fallback would decode into a different value.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            TAG: "ndarray",
            "dtype": data.dtype.str,
            "shape": list(data.shape),
            "data": base64.b64encode(data.tobytes()).decode("ascii"),
        }
    if isinstance(value, bytes):
        return {TAG: "bytes", "data": base64.b64encode(value).decode("ascii")}
    if isinstance(value, (set, frozenset)):
        # Deterministic member order (sorted by encoded repr) so equal
        # sets produce byte-identical documents — digests built over
        # wire documents rely on it.
        items = [encode_value(v) for v in value]
        items.sort(key=repr)
        return {
            TAG: "set" if isinstance(value, set) else "frozenset",
            "items": items,
        }
    if isinstance(value, tuple):
        columns = _table_columns(value)
        if columns is not None:
            return {TAG: "rows", "columns": [encode_value(c) for c in columns]}
        return {TAG: "tuple", "items": [encode_value(v) for v in value]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        if not cls.__module__.startswith("repro."):
            raise ProtocolError(
                f"cannot encode dataclass {cls.__module__}.{cls.__qualname__}"
                f" for the wire: only repro.* dataclasses round-trip"
            )
        return {
            TAG: "dataclass",
            "class": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                f.name: encode_value(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and TAG not in value:
            return {k: encode_value(v) for k, v in value.items()}
        # Non-string keys (or a colliding TAG key): escape as pairs.
        return {
            TAG: "dict",
            "items": [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ],
        }
    raise ProtocolError(
        f"cannot encode {type(value).__name__!r} value for the wire "
        f"(supported: JSON scalars, numpy scalars/arrays, bytes, "
        f"set/frozenset/tuple/list/dict, repro.* dataclasses)"
    )


def _table_columns(rows: tuple) -> list[np.ndarray] | None:
    """A table's columns (module doc) by C-level passes, else ``None``."""
    if type(rows) is not tuple or set(map(type, rows)) != {tuple} \
            or set(map(len, rows)) != {len(rows[0])} or not rows[0]:
        return None
    columns = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == {float}:
            columns.append(np.array(column, dtype=np.float64))
        elif kinds == {int} and -(1 << 63) <= min(column) \
                and max(column) < 1 << 63:
            columns.append(np.array(column, dtype=np.int64))
        else:
            return None
    return columns


def _resolve_dataclass(spec: str) -> type:
    """Resolve a ``module:qualname`` tag to a repro dataclass, or refuse.

    Closed-world by construction: only modules under the ``repro``
    package import, and only dataclass types resolve — wire documents
    cannot name arbitrary constructors.
    """
    module_name, _, qualname = spec.partition(":")
    if not (
        module_name == "repro" or module_name.startswith("repro.")
    ) or not qualname:
        raise ProtocolError(
            f"refusing to decode dataclass {spec!r}: only repro.* "
            f"classes round-trip on the wire"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ProtocolError(
            f"cannot decode dataclass {spec!r}: {exc}"
        ) from None
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise ProtocolError(
                f"cannot decode dataclass {spec!r}: "
                f"{qualname!r} not found in {module_name}"
            )
    if not (isinstance(obj, type) and dataclasses.is_dataclass(obj)):
        raise ProtocolError(
            f"refusing to decode {spec!r}: not a dataclass type"
        )
    return obj


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (see module doc for the contract)."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if not isinstance(value, dict):
        return value
    kind = value.get(TAG)
    if kind is None:
        return {k: decode_value(v) for k, v in value.items()}
    if kind == "ndarray":
        raw = base64.b64decode(value["data"])
        arr = np.frombuffer(raw, dtype=np.dtype(value["dtype"]))
        return arr.reshape(value["shape"]).copy()
    if kind == "bytes":
        return base64.b64decode(value["data"])
    if kind == "set":
        return {decode_value(v) for v in value["items"]}
    if kind == "frozenset":
        return frozenset(decode_value(v) for v in value["items"])
    if kind == "tuple":
        return tuple(decode_value(v) for v in value["items"])
    if kind == "rows":
        columns = value.get("columns")
        columns = columns if isinstance(columns, list) else []
        arrays = [decode_value(c) for c in columns]
        if not arrays or not all(
            isinstance(a, np.ndarray) and a.ndim == 1
            and a.dtype.kind in "if" and a.dtype.itemsize == 8
            for a in arrays
        ) or len({a.size for a in arrays}) != 1:
            raise ProtocolError(
                "a rows object holds 1-d int64 or float64 columns of "
                "one length"
            )
        return tuple(zip(*(a.tolist() for a in arrays)))
    if kind == "dict":
        return {
            decode_value(k): decode_value(v) for k, v in value["items"]
        }
    if kind == "dataclass":
        cls = _resolve_dataclass(value["class"])
        fields = {
            name: decode_value(v) for name, v in value["fields"].items()
        }
        declared = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(fields) - set(declared))
        if unknown:
            raise ProtocolError(
                f"wire document names unknown field(s) {unknown} of "
                f"{cls.__qualname__}"
            )
        init_names = {name for name, f in declared.items() if f.init}
        extra = {k: v for k, v in fields.items() if k not in init_names}
        obj = cls(**{k: v for k, v in fields.items() if k in init_names})
        for name, v in extra.items():
            # Fields declared init=False (caches, memoization slots)
            # are restored directly; frozen dataclasses need the
            # object-protocol write.
            object.__setattr__(obj, name, v)
        return obj
    raise ProtocolError(f"unknown wire tag {kind!r}")


def report_to_json(report: Any, indent: int | None = None) -> str:
    """Serialize a :class:`~repro.api.report.RunReport` to a JSON text."""
    return json.dumps(encode_value(report), indent=indent)


def report_from_json(text: str | bytes) -> Any:
    """Parse a JSON text back into a :class:`~repro.api.report.RunReport`.

    Refuses documents that decode to anything else — the wire format
    is for reports, not arbitrary object graphs.
    """
    from .report import RunReport

    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            f"report document is not valid JSON: {exc}"
        ) from None
    decoded = decode_value(document)
    if not isinstance(decoded, RunReport):
        raise ProtocolError(
            f"wire document decoded to {type(decoded).__name__!r}, "
            f"expected RunReport"
        )
    return decoded
