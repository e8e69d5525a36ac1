"""Beyond the paper: 4NF, dynamic data, and richer scoring.

The paper's §6 and §9 sketch three extensions without evaluating them;
this example demonstrates all three as implemented in
:mod:`repro.extensions` and :mod:`repro.incremental`:

1. **4NF normalization** — multi-valued dependencies are discovered
   from the data and decomposed just like FDs ("the normalization
   algorithm, then, would work in the same manner", §6),
2. **dynamic data** — the §9 open question: new rows are routed into
   the normalized schema, and rows that break a discovered constraint
   are reported instead of silently corrupting the schema,
3. **extended constraint scoring** — §9 suggests "research on other
   features for the key and foreign key selection"; column-name,
   cardinality-ratio, and RHS-coverage features are packaged as a
   drop-in decider.

Run with::

    python examples/beyond_the_paper.py
"""

from repro import normalize
from repro.extensions import (
    ExtendedScoringDecider,
    FourNFNormalizer,
    discover_mvds,
)
from repro.incremental import ConstraintMonitor
from repro.io.datasets import address_example
from repro.io.graphviz import schema_to_dot
from repro.model.instance import RelationInstance
from repro.model.schema import Relation


def demo_4nf() -> None:
    print("=== 1. 4NF: decomposing a multi-valued dependency ===")
    relation = Relation("course", ("teacher", "book", "student"))
    rows = []
    books = {"Curie": ["B1", "B2"], "Noether": ["B1", "B3"]}
    students = {"Curie": ["s1", "s2"], "Noether": ["s2", "s3"]}
    for teacher in books:
        for book in books[teacher]:
            for student in students[teacher]:
                rows.append((teacher, book, student))
    course = RelationInstance.from_rows(relation, rows)

    print(f"Input: course(teacher, book, student), {course.num_rows} rows")
    print("No FD holds — BCNF sees nothing to do.  But the data says:")
    for mvd in discover_mvds(course, max_lhs_size=1):
        print(f"  {mvd.to_str(course.columns)}")

    result = FourNFNormalizer(algorithm="hyfd").run(course)
    print("\n4NF result:")
    print(result.to_str())
    print()


def demo_dynamic_data() -> None:
    print("=== 2. Dynamic data: constraints meet new rows ===")
    address = address_example()
    result = normalize(address)
    monitor = ConstraintMonitor(result)

    good = ("Nora", "Klein", "10115", "Berlin", "Giffey")
    print(f"Routing consistent row {good} ...")
    violations = monitor.route_universal_row("address", good, apply=True)
    print(f"  -> {len(violations)} violations; row distributed over "
          f"{len(result.instances)} relations")

    bad = ("Max", "Lang", "14482", "Potsdam", "Schmidt")
    print(f"Routing row {bad} (14482 suddenly has a new mayor) ...")
    violations = monitor.route_universal_row("address", bad)
    for violation in violations:
        print(f"  -> {violation.to_str()}")
    print(
        "The discovered FD Postcode -> Mayor held on the old data only — "
        "exactly the 'dynamic data' hazard the paper's conclusion names.\n"
    )


def demo_extended_scoring() -> None:
    print("=== 3. Extended constraint scoring (drop-in decider) ===")
    address = address_example()
    result = normalize(address, decider=ExtendedScoringDecider(extras_weight=1.0))
    print(result.schema.to_str())
    print()
    print("Graphviz preview (paper §9: 'graphical previews of normalized")
    print("relations and their connections'):")
    print(schema_to_dot(result.schema))


def main() -> None:
    demo_4nf()
    demo_dynamic_data()
    demo_extended_scoring()


if __name__ == "__main__":
    main()
