"""Static-analysis devtools: the ``repro lint`` determinism checker.

The whole value of this reproduction is that one integer seed replays the
paper's February-2013 measurements bit-for-bit.  That property is easy to
lose — a stray ``random.Random(0)``, a ``time.time()`` leaking wall-clock
into simulated time, a ``pmap`` worker mutating shared state — so the
conventions are machine-enforced:

* :mod:`repro.devtools.registry` — rule registry and base classes;
* :mod:`repro.devtools.astcache` — parse-once AST cache every pass shares;
* :mod:`repro.devtools.callgraph` — the whole-program analysis engine:
  the import graph, a conservative call graph, constant folding, and
  parameter-binding resolution, built once per lint run;
* :mod:`repro.devtools.rules` — per-file AST rules REP001–REP005, REP007
  (raw concurrency), REP008 (exception swallowing), REP009, REP010, and
  REP014 (teardown interception outside ``repro.supervise``);
* :mod:`repro.devtools.layering` — import-graph rule REP006;
* :mod:`repro.devtools.rng_lineage` — whole-program rule REP011: RNG
  stream-label collisions and escaping RNG objects;
* :mod:`repro.devtools.shard_safety` — rule REP013: static race detection
  for callables handed to the deterministic ``pmap`` executor;
* :mod:`repro.devtools.sarif` — byte-stable SARIF 2.1.0 rendering for CI
  annotation upload (``repro lint --format sarif``);
* :mod:`repro.devtools.autofix` — span-edit application for the
  mechanical fixes findings carry (``repro lint --fix``);
* :mod:`repro.devtools.baseline` — fingerprint baseline for adopting the
  linter on a codebase with pre-existing findings;
* :mod:`repro.devtools.engine` — file walking, suppression comments, and
  the ``run_lint`` entry point used by ``repro lint``.

Everything is stdlib-``ast``; there are no third-party dependencies.
"""

from repro.devtools.findings import Finding, Fix
from repro.devtools.registry import all_rules, get_rule
from repro.devtools.engine import LintReport, run_lint

__all__ = [
    "Finding",
    "Fix",
    "LintReport",
    "all_rules",
    "get_rule",
    "run_lint",
]
