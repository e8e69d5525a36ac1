"""FD and UCC discovery algorithms.

The paper's pipeline starts by discovering *all minimal* functional
dependencies of the instance.  This package provides:

* :mod:`repro.discovery.bruteforce` — an FDep-style exact discoverer
  built on maximal agree sets and minimal hitting sets; slow but simple,
  it doubles as the test oracle for the faster algorithms,
* :mod:`repro.discovery.tane` — TANE [Huhtala et al. 1999], the classic
  levelwise algorithm the paper cites for step (1),
* :mod:`repro.discovery.hyfd` — HyFD [Papenbrock & Naumann 2016], the
  hybrid sampling/validation algorithm Normalize actually uses,
* :mod:`repro.discovery.ucc` — unique column combination discovery
  (levelwise and DUCC-style boundary search) for the primary-key
  selection component.
"""

from repro._lazy import lazy_exports

__all__ = [
    "IND",
    "BruteForceFD",
    "DuccUCC",
    "FDAlgorithm",
    "HyFD",
    "HyUCC",
    "NaiveUCC",
    "PrecomputedFDs",
    "SampledG3FD",
    "Tane",
    "discover_fds",
    "discover_uccs",
    "discover_unary_inds",
    "ind_holds",
    "verify_foreign_keys",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.discovery.base": ("FDAlgorithm", "discover_fds"),
        "repro.discovery.bruteforce": ("BruteForceFD",),
        "repro.discovery.hyfd": ("HyFD",),
        "repro.discovery.hyucc": ("HyUCC",),
        "repro.discovery.ind": (
            "IND",
            "discover_unary_inds",
            "ind_holds",
            "verify_foreign_keys",
        ),
        "repro.discovery.precomputed": ("PrecomputedFDs",),
        "repro.discovery.sampled": ("SampledG3FD",),
        "repro.discovery.tane": ("Tane",),
        "repro.discovery.ucc": ("DuccUCC", "NaiveUCC", "discover_uccs"),
    },
)
