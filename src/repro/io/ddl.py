"""SQL DDL export for normalized schemas.

Turns a :class:`~repro.model.schema.Schema` (typically
``NormalizationResult.schema``) into ``CREATE TABLE`` statements with
primary- and foreign-key constraints — the practical artifact a
downstream user wants from a normalization run.

Relations are emitted referenced-first (topologically along foreign
keys), so the script executes in one pass on any SQL engine.
"""

from __future__ import annotations

from repro.model.instance import RelationInstance
from repro.model.schema import Relation, Schema

__all__ = ["create_table_statement", "quote_identifier", "schema_to_ddl"]


def schema_to_ddl(
    schema: Schema,
    instances: dict[str, RelationInstance] | None = None,
    dialect_text_type: str = "TEXT",
) -> str:
    """Render the schema as executable SQL DDL.

    With ``instances`` given, column types are inferred per column
    (INTEGER if every non-NULL value parses as an int, else the text
    type); otherwise every column uses the text type.
    """
    statements = [
        _create_table(relation, instances, dialect_text_type)
        for relation in _topological(schema)
    ]
    return "\n\n".join(statements) + "\n"


def create_table_statement(
    relation: Relation,
    instances: dict[str, RelationInstance] | None = None,
    dialect_text_type: str = "TEXT",
    name: str | None = None,
) -> str:
    """One ``CREATE TABLE`` statement for a single relation.

    The migration planner (:mod:`repro.incremental.migration`) emits
    these outside full-schema exports; ``name`` optionally overrides
    the table name (e.g. for ``<table>__new`` rebuild staging) while
    type inference still reads the instance under the relation's name.
    """
    if name is None:
        return _create_table(relation, instances, dialect_text_type)
    renamed = Relation(
        name,
        relation.columns,
        primary_key=relation.primary_key,
        foreign_keys=list(relation.foreign_keys),
    )
    instance = (instances or {}).get(relation.name)
    lookup = {name: instance} if instance is not None else None
    return _create_table(renamed, lookup, dialect_text_type)


def quote_identifier(identifier: str) -> str:
    """SQL-quote an identifier the same way the DDL export does."""
    return _quote(identifier)


def _topological(schema: Schema) -> list[Relation]:
    """Referenced-before-referencing order (cycles broken by name)."""
    remaining = {relation.name: relation for relation in schema}
    ordered: list[Relation] = []
    emitted: set[str] = set()
    while remaining:
        progressed = False
        for name in sorted(remaining):
            relation = remaining[name]
            deps = {
                fk.ref_relation
                for fk in relation.foreign_keys
                if fk.ref_relation != name
            }
            if deps <= emitted:
                ordered.append(relation)
                emitted.add(name)
                del remaining[name]
                progressed = True
        if not progressed:  # FK cycle: emit the rest in name order
            for name in sorted(remaining):
                ordered.append(remaining[name])
            break
    return ordered


def _create_table(
    relation: Relation,
    instances: dict[str, RelationInstance] | None,
    text_type: str,
) -> str:
    instance = (instances or {}).get(relation.name)
    lines = []
    pk = set(relation.primary_key or ())
    for column in relation.columns:
        column_type = _infer_type(instance, column, text_type)
        not_null = " NOT NULL" if column in pk else ""
        lines.append(f"    {_quote(column)} {column_type}{not_null}")
    if relation.primary_key:
        cols = ", ".join(_quote(c) for c in relation.primary_key)
        lines.append(f"    PRIMARY KEY ({cols})")
    for fk in relation.foreign_keys:
        local = ", ".join(_quote(c) for c in fk.columns)
        remote = ", ".join(_quote(c) for c in fk.ref_columns)
        lines.append(
            f"    FOREIGN KEY ({local}) REFERENCES "
            f"{_quote(fk.ref_relation)} ({remote})"
        )
    body = ",\n".join(lines)
    return f"CREATE TABLE {_quote(relation.name)} (\n{body}\n);"


def _infer_type(
    instance: RelationInstance | None, column: str, text_type: str
) -> str:
    if instance is None:
        return text_type
    values = [value for value in instance.decode_table(column) if value is not None]
    if values and all(_is_int(value) for value in values):
        return "INTEGER"
    return text_type


def _is_int(value: object) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    try:
        int(str(value))
    except ValueError:
        return False
    return True


def _quote(identifier: str) -> str:
    escaped = identifier.replace('"', '""')
    return f'"{escaped}"'
