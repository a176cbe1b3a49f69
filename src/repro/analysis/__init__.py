"""``repro lint`` — AST-based enforcement of the project's invariants.

The contracts this repository previously enforced by review convention
(seeded randomness only, registry completeness, kernel/oracle pairing,
multiprocessing confined to the worker module, versioned checkpoint
payloads, explicit numpy dtypes) are expressed here as named,
suppressible rules that run as a blocking CI gate ahead of the test
lanes.  See the README's "Static analysis" section for the rule
table and suppression syntax.

Entry points: the ``repro lint`` CLI subcommand, or programmatically::

    from repro.analysis import run_lint
    findings = run_lint(repo_root)
"""

from .engine import (JSON_SCHEMA, LintConfig, LintContext, LintError,
                     default_rules, render_json, render_text, rule_table,
                     run_lint)
from .model import UNUSED_SUPPRESSION, FileInfo, Finding, Rule, Suppression
from .rules_format import write_baseline, working_tree_dirty

__all__ = [
    "Finding", "FileInfo", "Rule", "Suppression", "UNUSED_SUPPRESSION",
    "LintConfig", "LintContext", "LintError", "JSON_SCHEMA",
    "default_rules", "rule_table", "run_lint",
    "render_json", "render_text",
    "write_baseline", "working_tree_dirty",
]
