"""Extensions beyond the paper's core system.

The paper sketches several directions it does not evaluate; this
package implements them on top of the core pipeline:

* :mod:`repro.extensions.mvd` — multi-valued dependency discovery
  (dependency bases per LHS), the prerequisite §6 names for normal
  forms beyond BCNF,
* :mod:`repro.extensions.fournf` — 4NF normalization built on MVDs,
  "the normalization algorithm, then, would work in the same manner"
  (§6),
* :mod:`repro.extensions.scoring_features` — additional key/foreign-key
  quality features (§9 suggests research on exactly this), packaged as
  a drop-in decider so the core §7 scoring stays faithful,
* :mod:`repro.extensions.approximate` — approximate FDs (TANE's g3
  error) and exception-row reporting, the "errors in the data" half of
  §9's open question.

Constraint maintenance for dynamic data, the other half of §9, is the
:mod:`repro.incremental` subsystem (its
:class:`~repro.incremental.ConstraintMonitor` routes new rows and
reports the discovered constraints they break).
"""

from repro.extensions.approximate import AFD, discover_afds, g3_error, violating_rows
from repro.extensions.fournf import FourNFNormalizer
from repro.extensions.mvd import MVD, dependency_basis, discover_mvds, mvd_holds
from repro.extensions.scoring_features import ExtendedScoringDecider

__all__ = [
    "AFD",
    "MVD",
    "ExtendedScoringDecider",
    "FourNFNormalizer",
    "dependency_basis",
    "discover_afds",
    "discover_mvds",
    "g3_error",
    "mvd_holds",
    "violating_rows",
]
