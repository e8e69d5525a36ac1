"""A tour of the FD-discovery and closure substrate.

Runs all three discovery algorithms (brute force, TANE, HyFD) on
the same dataset, confirms they agree on the complete set of minimal
FDs, and compares the three closure algorithms of paper §4 on the
result — a small, self-contained version of the efficiency analysis.

Run with::

    python examples/fd_discovery_tour.py [--dataset horse|plista|amalgam1|flight|planets]
"""

import argparse
import time

from repro import (
    BruteForceFD,
    HyFD,
    Tane,
    improved_closure,
    naive_closure,
    optimized_closure,
    planets_example,
)
from repro.datagen.profiles import (
    amalgam_like,
    flight_like,
    horse_like,
    plista_like,
)
from repro.evaluation.reporting import format_table

DATASETS = {
    "planets": planets_example,
    # smaller variants so even brute force stays friendly here
    "horse": lambda: horse_like(num_rows=80),
    "plista": lambda: plista_like(num_rows=120),
    "amalgam1": lambda: amalgam_like(num_rows=30),
    "flight": lambda: flight_like(num_rows=120),
}


def canon(fds):
    return {
        (lhs, attr)
        for lhs, rhs in fds.items()
        for attr in range(fds.num_attributes)
        if rhs >> attr & 1
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", choices=sorted(DATASETS), default="planets")
    args = parser.parse_args()

    instance = DATASETS[args.dataset]()
    print(
        f"Dataset {instance.name!r}: {instance.arity} attributes x "
        f"{instance.num_rows} rows\n"
    )

    # --- Discovery ----------------------------------------------------
    algorithms = [BruteForceFD(), Tane(), HyFD()]
    rows = []
    results = {}
    for algorithm in algorithms:
        started = time.perf_counter()
        fds = algorithm.discover(instance)
        elapsed = time.perf_counter() - started
        results[algorithm.name] = fds
        rows.append(
            [algorithm.name, fds.count_single_rhs(), len(fds), f"{elapsed:.3f}"]
        )
    print(
        format_table(
            ["algorithm", "minimal FDs", "aggregated", "seconds"],
            rows,
            title="FD discovery",
        )
    )

    reference = canon(results["bruteforce"])
    for name, fds in results.items():
        assert canon(fds) == reference, f"{name} disagrees with the oracle!"
    print("\nAll three algorithms agree on the complete set of minimal FDs.\n")

    # --- Closure (paper §4) -------------------------------------------
    fds = results["hyfd"]
    rows = []
    for label, algorithm in [
        ("naive (Alg. 1)", naive_closure),
        ("improved (Alg. 2)", improved_closure),
        ("optimized (Alg. 3)", optimized_closure),
    ]:
        started = time.perf_counter()
        extended = algorithm(fds.copy())
        elapsed = time.perf_counter() - started
        rows.append(
            [
                label,
                f"{fds.average_rhs_size():.2f}",
                f"{extended.average_rhs_size():.2f}",
                f"{elapsed:.4f}",
            ]
        )
    print(
        format_table(
            ["algorithm", "avg |RHS| before", "after", "seconds"],
            rows,
            title="Closure calculation",
        )
    )

    if args.dataset == "planets":
        planets = instance
        fds = results["hyfd"]
        atmosphere = planets.relation.mask_of(["Atmosphere"])
        rings = planets.relation.mask_of(["Rings"])
        if fds.rhs_of(atmosphere) & rings:
            print(
                "\nAs promised in the paper's introduction: "
                "Atmosphere -> Rings holds on the planets data."
            )


if __name__ == "__main__":
    main()
