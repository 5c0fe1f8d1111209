"""Contract-aware static analysis for the repro codebase.

``repro.lint`` enforces, at parse time, the three standing contracts the
test suite otherwise only catches at runtime:

* **DET** — determinism: no hash-order iteration in ordering-sensitive
  packages, no unseeded randomness, no wall-clock reads in simulation
  logic, no object identity in orderings (DET01–DET04).
* **HOT** — hot-path discipline: functions marked ``# repro-lint: hot``
  may not allocate un-slotted instances, payload dicts, or per-call
  function objects (HOT01–HOT03).
* **LAYER** — import purity: the simulation core never imports its
  drivers, observability stays an import leaf, certification/analysis
  remain read-only consumers (LAYER01–LAYER03).

The package is deliberately standalone: it imports nothing from the rest
of ``repro``, and nothing in ``repro`` imports it, so it adds zero runtime
cost to simulation and can analyze a broken tree.

Use ``python -m repro.lint [paths] [--format human|json]``; there is
nothing to configure, because each rule's scope is a table of sub-packages
(:data:`repro.lint.rules.base.SCOPE`) rooted at the analysed package.
Suppress a finding inline with ``# repro-lint: disable=RULE -- reason``
(the reason is mandatory) and mark hot functions with ``# repro-lint:
hot`` on or directly above the ``def`` line.
"""

from __future__ import annotations

from repro.lint.engine import LintResult, collect_files, run_lint
from repro.lint.rules import all_rules, rule_catalog
from repro.lint.violations import Violation

__all__ = [
    "LintResult",
    "Violation",
    "all_rules",
    "collect_files",
    "rule_catalog",
    "run_lint",
]
