#!/usr/bin/env python3
"""Validate committed benchmark artifacts against schemas/bench.schema.json.

The schema is a discriminated union: its top-level 'benchmarks' map keys
sub-schemas by the document's 'benchmark' field (BM_CampaignBatch,
obs_overhead, timeline_overhead, analytic, serve).
Shared shapes live in '$defs' and are resolved through local
'#/$defs/...' $ref pointers.

Stdlib-only implementation of the JSON-Schema subset the bench schema
uses (type / const / enum / required / properties / additionalProperties /
propertyNames / pattern / minimum / items / local $ref), so CI needs no
third-party validator.

Usage: validate_bench.py BENCH.json [BENCH.json ...] [--schema SCHEMA.json]
Exit code 0 when every file is valid; 1 with one line per violation
otherwise.
"""

import json
import re
import sys
from pathlib import Path


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "string":
        return isinstance(value, str)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "boolean":
        return isinstance(value, bool)
    if expected == "null":
        return value is None
    raise ValueError(f"unsupported schema type {expected!r}")


def resolve_ref(ref, root):
    if not ref.startswith("#/"):
        raise ValueError(f"only local refs supported, got {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema, root, path, errors):
    # A $ref composes with sibling keywords (draft 2019+ semantics): the
    # bench schema uses this to layer extra `required` keys on a shared
    # shape (batch_timing = campaign_timing + lane counters required).
    if "$ref" in schema:
        validate(value, resolve_ref(schema["$ref"], root), root, path, errors)

    expected_type = schema.get("type")
    if expected_type is not None and not type_ok(value, expected_type):
        errors.append(f"{path}: expected {expected_type}, got {type(value).__name__}")
        return
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, got {value!r}")
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "pattern" in schema and isinstance(value, str):
        if not re.search(schema["pattern"], value):
            errors.append(f"{path}: {value!r} does not match {schema['pattern']!r}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                validate(value[key], sub, root, f"{path}.{key}", errors)
        additional = schema.get("additionalProperties", True)
        name_schema = schema.get("propertyNames")
        for key in value:
            if name_schema is not None:
                validate(key, name_schema, root, f"{path}.{key} (name)", errors)
            if key in properties:
                continue
            if additional is False and "$ref" not in schema:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                validate(value[key], additional, root, f"{path}.{key}", errors)

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], root, f"{path}[{i}]", errors)


def validate_bench_file(bench_path, schema):
    errors = []
    try:
        doc = json.loads(bench_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{bench_path}: {exc}"], None
    if not isinstance(doc, dict) or "benchmark" not in doc:
        return [f"{bench_path}: $: missing required key 'benchmark'"], None
    name = doc["benchmark"]
    sub = schema.get("benchmarks", {}).get(name)
    if sub is None:
        known = sorted(schema.get("benchmarks", {}))
        return [f"{bench_path}: $.benchmark: unknown benchmark {name!r} (known: {known})"], name
    validate(doc, sub, schema, "$", errors)
    return [f"{bench_path}: {e}" for e in errors], name


def main(argv):
    schema_path = Path(__file__).resolve().parent.parent / "schemas" / "bench.schema.json"
    bench_paths = []
    args = iter(argv[1:])
    for arg in args:
        if arg == "--schema":
            try:
                schema_path = Path(next(args))
            except StopIteration:
                print("--schema requires a path", file=sys.stderr)
                return 2
        elif arg.startswith("--schema="):
            schema_path = Path(arg.split("=", 1)[1])
        else:
            bench_paths.append(Path(arg))
    if not bench_paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    schema = json.loads(schema_path.read_text())
    failed = False
    for bench_path in bench_paths:
        errors, name = validate_bench_file(bench_path, schema)
        for err in errors:
            print(err, file=sys.stderr)
        if errors:
            failed = True
        else:
            print(f"{bench_path}: valid (benchmark {name})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
