"""A dependency-free JSON Schema validator (draft-07 subset).

CI validates every JSON artifact the toolkit emits (unified Reports,
sweep reports, telemetry snapshots) against the checked-in
``tests/report_schema.json``, and the CI image deliberately installs
nothing beyond pytest — so the validator ships with the package.
Supported keywords are the subset that schema uses: ``type`` (scalar or
list), ``enum``, ``const``, ``required``, ``properties``,
``patternProperties``, ``additionalProperties``, ``items``,
``minimum``, ``minItems``, ``pattern``, ``oneOf``/``anyOf``/``allOf``,
and local ``$ref`` (``#/$defs/...`` / ``#/definitions/...``). Unknown
keywords are rejected loudly rather than silently skipped, so the
schema cannot drift ahead of the validator.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

#: Keywords the validator understands; anything else in a schema object
#: is an error (annotation-only keys are whitelisted as no-ops).
_KNOWN_KEYWORDS = {
    "type", "enum", "const", "required", "properties",
    "patternProperties", "additionalProperties", "items",
    "minimum", "minItems", "pattern", "oneOf", "anyOf", "allOf", "$ref",
}
_ANNOTATIONS = {"$schema", "$id", "$defs", "definitions", "title",
                "description", "examples", "default", "$comment"}

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


class SchemaError(ValueError):
    """The schema itself is malformed or uses unsupported keywords."""


class ValidationError(ValueError):
    """The instance does not satisfy the schema.

    ``path`` points at the offending location (JSON-pointer-ish,
    ``$.metrics["queries.issued"]``).
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def _check_type(value, expected, path: str) -> None:
    names = expected if isinstance(expected, list) else [expected]
    for name in names:
        if name not in _TYPES:
            raise SchemaError(f"unknown type {name!r} in schema")
        python_type = _TYPES[name]
        if isinstance(value, python_type):
            # bool is an int subclass; "integer"/"number" must not
            # accept True/False.
            if name in ("integer", "number") and isinstance(value, bool):
                continue
            return
    raise ValidationError(
        path,
        f"expected {' or '.join(names)}, got {type(value).__name__}",
    )


def _resolve_ref(ref: str, root: dict) -> dict:
    if not ref.startswith("#/"):
        raise SchemaError(f"only local $ref supported, got {ref!r}")
    node = root
    for token in ref[2:].split("/"):
        token = token.replace("~1", "/").replace("~0", "~")
        if not isinstance(node, dict) or token not in node:
            raise SchemaError(f"unresolvable $ref {ref!r}")
        node = node[token]
    return node


def validate(instance, schema: dict, root: Optional[dict] = None,
             path: str = "$") -> None:
    """Raise :class:`ValidationError` unless *instance* satisfies
    *schema*; returns ``None`` on success."""
    if root is None:
        root = schema
    if not isinstance(schema, dict):
        raise SchemaError(f"schema at {path} must be an object")
    unknown = set(schema) - _KNOWN_KEYWORDS - _ANNOTATIONS
    if unknown:
        raise SchemaError(
            f"unsupported schema keywords at {path}: {', '.join(sorted(unknown))}"
        )

    if "$ref" in schema:
        validate(instance, _resolve_ref(schema["$ref"], root), root, path)
        return
    if "type" in schema:
        _check_type(instance, schema["type"], path)
    if "enum" in schema and instance not in schema["enum"]:
        raise ValidationError(path, f"{instance!r} not in {schema['enum']!r}")
    if "const" in schema and instance != schema["const"]:
        raise ValidationError(
            path, f"expected {schema['const']!r}, got {instance!r}"
        )
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool):
        if instance < schema["minimum"]:
            raise ValidationError(
                path, f"{instance} < minimum {schema['minimum']}"
            )
    if "pattern" in schema and isinstance(instance, str):
        if not re.search(schema["pattern"], instance):
            raise ValidationError(
                path, f"{instance!r} does not match /{schema['pattern']}/"
            )

    for combinator in ("allOf", "anyOf", "oneOf"):
        if combinator not in schema:
            continue
        branches = schema[combinator]
        errors: List[str] = []
        matches = 0
        for index, branch in enumerate(branches):
            try:
                validate(instance, branch, root, path)
                matches += 1
            except ValidationError as exc:
                errors.append(f"[{index}] {exc}")
        if combinator == "allOf" and errors:
            raise ValidationError(path, f"allOf failed: {'; '.join(errors)}")
        if combinator == "anyOf" and matches == 0:
            raise ValidationError(path, f"anyOf failed: {'; '.join(errors)}")
        if combinator == "oneOf" and matches != 1:
            raise ValidationError(
                path,
                f"oneOf matched {matches} branches (need exactly 1)"
                + (f": {'; '.join(errors)}" if matches == 0 else ""),
            )

    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise ValidationError(path, f"missing required key {key!r}")
        properties = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        additional = schema.get("additionalProperties", True)
        for key, value in instance.items():
            child = f"{path}[{key!r}]"
            matched = False
            if key in properties:
                matched = True
                validate(value, properties[key], root, child)
            for pattern, subschema in patterns.items():
                if re.search(pattern, key):
                    matched = True
                    validate(value, subschema, root, child)
            if not matched:
                if additional is False:
                    raise ValidationError(path, f"unexpected key {key!r}")
                if isinstance(additional, dict):
                    validate(value, additional, root, child)
    if isinstance(instance, list):
        if "minItems" in schema and len(instance) < schema["minItems"]:
            raise ValidationError(
                path,
                f"{len(instance)} items < minItems {schema['minItems']}",
            )
        if "items" in schema:
            for index, item in enumerate(instance):
                validate(item, schema["items"], root, f"{path}[{index}]")


def load_schema(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
