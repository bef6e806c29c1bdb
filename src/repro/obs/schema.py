"""Minimal JSON-Schema validator (dependency-free).

Supports the subset of draft-07 the schemas in ``tools/trace_schema.json``
use: ``type`` (string or list of strings), ``properties``, ``required``,
``items``, ``enum``, ``minimum``, ``minItems``,
``additionalProperties`` as a schema (applied to every property not named
in ``properties`` — how the bench-record's dynamic benchmark map is
validated), and ``$defs`` with :func:`validate_def` (named sub-schemas
for the request-event and bench-record line formats).
Every stream of a ``repro-experiment --obs DIR`` directory (see
:mod:`repro.obs.sink`) and the CI smoke tests validate against it
without pulling in the ``jsonschema`` package.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["validate", "validate_def"]

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass in Python; JSON distinguishes them.
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check(instance: object, schema: Dict, path: str, errors: List[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](instance) for t in types):
            errors.append(
                f"{path or '$'}: expected type {'/'.join(types)}, "
                f"got {type(instance).__name__}"
            )
            return
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path or '$'}: {instance!r} not in enum {schema['enum']}")
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        minimum = schema.get("minimum")
        if minimum is not None and instance < minimum:
            errors.append(f"{path or '$'}: {instance} < minimum {minimum}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path or '$'}: missing required property {name!r}")
        properties = schema.get("properties", {})
        for name, subschema in properties.items():
            if name in instance:
                _check(instance[name], subschema, f"{path}.{name}", errors)
        additional = schema.get("additionalProperties")
        if isinstance(additional, dict):
            for name, value in instance.items():
                if name not in properties:
                    _check(value, additional, f"{path}.{name}", errors)
    if isinstance(instance, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(instance) < min_items:
            errors.append(
                f"{path or '$'}: {len(instance)} items < minItems {min_items}"
            )
        items = schema.get("items")
        if items is not None:
            for i, element in enumerate(instance):
                _check(element, items, f"{path}[{i}]", errors)


def validate(instance: object, schema: Dict) -> List[str]:
    """Validate ``instance`` against ``schema``; return a list of errors.

    An empty list means the instance conforms.
    """
    errors: List[str] = []
    _check(instance, schema, "", errors)
    return errors


def validate_def(instance: object, schema: Dict, def_name: str) -> List[str]:
    """Validate ``instance`` against the named ``$defs`` entry of ``schema``.

    Used for the line-oriented contracts that share
    ``tools/trace_schema.json``: request-log events
    (``$defs.request_event``) and benchmark-history records
    (``$defs.bench_record``).  Raises ``KeyError`` for an unknown name so
    a typo fails loudly rather than validating against nothing.
    """
    defs = schema.get("$defs", {})
    if def_name not in defs:
        raise KeyError(
            f"schema has no $defs entry {def_name!r}; known: {sorted(defs)}"
        )
    return validate(instance, defs[def_name])
