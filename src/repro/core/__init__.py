"""The Normalize pipeline — the paper's primary contribution.

Components (paper Figure 1):

* :mod:`repro.core.closure` — closure calculation over FD sets
  (Algorithms 1–3: naive, improved, optimized; §4),
* :mod:`repro.core.key_derivation` — keys from extended FDs (§5),
* :mod:`repro.core.violations` — BCNF/3NF violation detection
  (Algorithm 4; §6),
* :mod:`repro.core.scoring` — key and violating-FD quality features
  (§7),
* :mod:`repro.core.selection` — the (semi-)automatic decision layer:
  auto, scripted, and callback deciders,
* :mod:`repro.core.decomposition` — relation splitting with FD
  projection (Lemma 3) and constraint wiring,
* :mod:`repro.core.normalize` — the driver tying it all together,
* :mod:`repro.core.result` — result objects, logs, and reporting.
"""

from repro.core.closure import (
    calculate_closure,
    improved_closure,
    naive_closure,
    optimized_closure,
)
from repro.core.decomposition import decompose
from repro.core.key_derivation import derive_keys
# Not the ``normalize`` function: that name is the submodule's.
from repro.core.normalize import Normalizer
from repro.core.result import DecompositionStep, NormalizationResult
from repro.core.scoring import (
    KeyScore,
    ViolatingFDScore,
    rank_keys,
    rank_violating_fds,
    score_key,
    score_violating_fd,
)
from repro.core.selection import (
    AutoDecider,
    CallbackDecider,
    Decider,
    ScriptedDecider,
)
from repro.core.violations import find_violating_fds

__all__ = [
    "AutoDecider",
    "CallbackDecider",
    "Decider",
    "DecompositionStep",
    "KeyScore",
    "NormalizationResult",
    "Normalizer",
    "ScriptedDecider",
    "ViolatingFDScore",
    "calculate_closure",
    "decompose",
    "derive_keys",
    "find_violating_fds",
    "improved_closure",
    "naive_closure",
    "optimized_closure",
    "rank_keys",
    "rank_violating_fds",
    "score_key",
    "score_violating_fd",
]
