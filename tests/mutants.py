"""Mutation check: the Tier-1 tests named for each mutant must kill it.

    python3 tests/mutants.py [NAME ...]

Runs every mutant in MUTANTS, or only those named. For each one it copies
``src/`` to a temporary directory, replaces one exact source text, which
must occur exactly once in its file, and runs the mutant's tests with
``-x`` in a child pytest that imports ``cpcompat`` from the copy. The
mutant is killed when the tests fail; a property test stops at its first
failing example, unshrunk, and keeps it in an example database that all
children share. After the mutants, the tests of all selected mutants run
once on an unmutated copy and must pass there, or a kill would prove
nothing: their property tests replay every example a mutant failed on and
draw no new ones (the Tier-1 suite draws those). A mutated file that does
not compile is refused, as its tests would fail without testing anything.

Importing pytest and hypothesis takes most of a fresh interpreter's
start-up, so the children are forked from one server process that has
imported them (POSIX only). They share one cache of compiled modules in
the temporary directory, so only the first compiles the tests. Each
mutant has a copy of ``src/`` of its own, at a path no cached module of
another copy can match.

Exits 0 when every selected mutant is killed, and 1 when one survives, when
the unmutated copy fails, when a mutated file does not compile, or when a
mutant's source text is not found exactly once: a change that moves or
rewrites that code updates the entry. Standard library only, besides the
pytest and hypothesis the tests need.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import Phase, settings
from hypothesis.database import DirectoryBasedExampleDatabase

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cpcompat/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the root of the checkout


# The case of one rules line in the table of bad rules lines.
BAD_RULE_LINE = "tests/test_rules.py::TestParseRuleErrors::test_bad_lines_raise_syntax_errors"

MUTANTS = (
    Mutant(
        "sibling order never records the last linked sibling",
        "parser.py",
        "                parent.last = path[-1]\n",
        "                pass\n",
        ("tests/test_parser.py::TestErrors::test_sibling_order_reads_the_last_linked_sibling",),
    ),
    Mutant(
        "weight guard reads the first character of the title",
        "parser.py",
        'if title[-1] in "0123456789":',
        'if title[0] in "0123456789":',
        ("tests/test_parser.py::TestHeadingParsing::test_trailing_integer_is_weight",),
    ),
    Mutant(
        "an error does not mark the parse as failed",
        "parser.py",
        "        nonlocal failed\n        failed = True\n",
        "        nonlocal failed\n",
        ("tests/test_parser.py::TestErrors::test_zero_weight_rejected",),
    ),
    Mutant(
        "paragraph checks its children only when it has none",
        "model.py",
        "        if children:\n",
        "        if not children:\n",
        ("tests/test_model.py::TestParagraph::test_unordered_children",),
    ),
    Mutant(
        "number path accepts bool segments",
        "model.py",
        "if not _INT_ONLY.issuperset(map(type, segments)):",
        "if not {int, bool}.issuperset(map(type, segments)):",
        ("tests/test_model.py::TestNumberPath::test_segment_not_an_int",),
    ),
    Mutant(
        "a value equals an instance of another class with the same fields",
        "model.py",
        "        if other.__class__ is not self.__class__:\n",
        "        if not isinstance(other, _Frozen):\n",
        ("tests/test_model.py::TestSlottedValues::test_equal_only_to_an_instance_of_the_same_class",),
    ),
    Mutant(
        "a value accepts assignment",
        "model.py",
        '        raise AttributeError(f"cannot assign to field {name!r}")\n',
        "        object.__setattr__(self, name, value)\n",
        ("tests/test_model.py::TestSlottedValues::test_frozen[NumberPath]",),
    ),
    Mutant(
        "pickling restores the slots without the constructor",
        "model.py",
        "    def __reduce__(self) -> tuple:\n"
        "        return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])\n",
        "",
        ("tests/test_model.py::TestSlottedValues::test_unpickling_runs_the_checks",),
    ),
    Mutant(
        "folded diagnostics report one too few",
        "cli.py",
        '(f" (and {count - 1} more)"',
        '(f" (and {count - 2} more)"',
        ("tests/test_cli.py::TestCompare::test_errors_are_one_line_per_code_too",),
    ),
    Mutant(
        "a failed standard-stream write reports no error",
        "cli.py",
        "        return exc\n",
        "        return None\n",
        ("tests/test_cli.py::TestMerge::test_closed_stdout_exits_1",),
    ),
    Mutant(
        "the renderer drops the Connection line",
        "parser.py",
        '            lines.append(f"Connection {paragraph.connective._name_}")\n',
        "            pass\n",
        ("tests/test_parser.py::TestRendering::test_connection_rendered_only_when_declared",),
    ),
    Mutant(
        "a parent's own score and its children's swap blend weights",
        "comparison.py",
        "weighted_mean(((own, 1), (aggregate, len(children))))",
        "weighted_mean(((own, len(children)), (aggregate, 1)))",
        ("tests/test_comparison.py::TestChildCombination::test_parent_blends_own_and_children",),
    ),
    Mutant(
        "sections only policy B has are not paired",
        "comparison.py",
        "    pairs.extend((None, b) for b in by_path_b.values())\n",
        "",
        (
            "tests/test_comparison.py::TestMissingParagraphs::test_b_only_rows_follow_a_rows",
            "tests/test_merger.py::TestStructureUnion::test_b_only_sections_are_adopted_in_order",
        ),
    ),
    Mutant(
        "merge keeps policy A's keyword",
        "merger.py",
        "        if option_keyword_value(option_b) > option_keyword_value(option_a):",
        "        if False:",
        ("tests/test_merger.py::TestOptionMerging::test_stricter_keyword_wins",),
    ),
    Mutant(
        "RECOMMENDED is worth 0.75",
        "model.py",
        "    RECOMMENDED = 0.8\n",
        "    RECOMMENDED = 0.75\n",
        ("tests/test_scoring.py::TestWorkedExample::test_and_merge_is_32_5",),
    ),
    Mutant(
        "a rule with an unknown basis reads the unweighted score",
        "acceptance.py",
        "                raise syntax_error(f\"unknown basis {basis[0]!r}\")\n",
        "                pass\n",
        (f"{BAD_RULE_LINE}[overall > 80 sideways]",),
    ),
    Mutant(
        "a rule's bad section number raises a bare ValueError",
        "acceptance.py",
        "            raise syntax_error(f\"bad section number {dotted!r}\") from None\n",
        "            raise\n",
        (f"{BAD_RULE_LINE}[paragraph 1.x > 50]",),
    ),
    Mutant(
        "an overall rule of the wrong length is called an unknown rule",
        "acceptance.py",
        "    elif subject == \"overall\":\n        raise syntax_error(\"expected 'overall <operator> <number> [basis]'\")\n",
        "",
        (f"{BAD_RULE_LINE}[overall >]",),
    ),
    Mutant(
        "a paragraph rule of the wrong length is called an unknown rule",
        "acceptance.py",
        "    elif subject == \"paragraph\":\n        raise syntax_error(\"expected 'paragraph <path> <operator> <number>'\")\n",
        "",
        (f"{BAD_RULE_LINE}[paragraph > 50]",),
    ),
    Mutant(
        "an unknown rule is an internal error",
        "acceptance.py",
        "    else:\n        raise syntax_error(f\"unknown rule {subject!r}\")\n",
        "",
        (f"{BAD_RULE_LINE}[verdict > 80]",),
    ),
    Mutant(
        "a threshold is any text float() reads",
        "acceptance.py",
        "    if not _NUMBER_RE.fullmatch(number):\n",
        "    if False:\n",
        (f"{BAD_RULE_LINE}[overall > 1e1]",),
    ),
    Mutant(
        "a rule AcceptanceRule refuses raises a bare ValueError",
        "acceptance.py",
        "        raise syntax_error(str(error)) from None\n",
        "        raise\n",
        (f"{BAD_RULE_LINE}[overall = 80]",),
    ),
    Mutant(
        "a rule naming a section the report lacks is an internal error",
        "acceptance.py",
        "    if row is None:\n        raise UnknownPathError(\n",
        "    if False:\n        raise UnknownPathError(\n",
        ("tests/test_rules.py::TestEvaluate::test_unknown_path_raises",),
    ),
    Mutant(
        "a strict > rule accepts a score at its threshold",
        "acceptance.py",
        "return actual - rule.threshold > SCORE_EPSILON",
        "return actual - rule.threshold >= -SCORE_EPSILON",
        ("tests/test_rules.py::TestEvaluate::test_strict_threshold_rejects_equal_score",),
    ),
    Mutant(
        "a strict > rule counts float noise in the score's favor",
        "acceptance.py",
        "return actual - rule.threshold > SCORE_EPSILON",
        "return actual - rule.threshold > 0.0",
        ("tests/test_rules.py::TestEvaluate::test_noise_counts_against_the_score_under_strict",),
    ),
    Mutant(
        "a >= rule counts float noise against the score",
        "acceptance.py",
        "return actual - rule.threshold >= -SCORE_EPSILON",
        "return actual - rule.threshold >= 0.0",
        ("tests/test_rules.py::TestEvaluate::test_noise_counts_for_the_score_under_at_least",),
    ),
    Mutant(
        "a rule's description writes a threshold of -0.0 as -0",
        "acceptance.py",
        "Decimal(repr(abs(self.threshold)))",
        "Decimal(repr(self.threshold))",
        ("tests/test_rules.py::TestParseRules::test_negative_zero_threshold_describes_as_0",),
    ),
    Mutant(
        "a failed rule's score is written to four decimals even where they meet the rule",
        "acceptance.py",
        "        if _passes(self.rule, float(shown)):\n",
        "        if False:\n",
        ("tests/test_rules.py::TestEvaluate::test_score_rounded_onto_the_threshold_is_written_in_full",),
    ),
    Mutant(
        "MUST NOT draws no look-alike warning",
        "parser.py",
        'if head == "MUST" and rest[:4] in ("NOT", "NOT "):',
        "if False:",
        ("tests/test_parser.py::TestLineDispatch::test_line",),
    ),
    Mutant(
        "comparison diagnostics are left last first",
        "comparison.py",
        "diagnostics=tuple(reversed(diagnostics)),",
        "diagnostics=tuple(diagnostics),",
        ("tests/test_comparison.py::TestDiagnostics::test_pair_order_with_title_before_connective",),
    ),
    Mutant(
        "paragraph stores its options and comments in each other's slots",
        "model.py",
        "(_set_path, _set_title, _set_weight, _set_options,\n _set_connective, _set_comments,",
        "(_set_path, _set_title, _set_weight, _set_comments,\n _set_connective, _set_options,",
        ("tests/test_model.py::TestSlottedValues::test_lists_are_stored_as_tuples",),
    ),
    Mutant(
        "OR takes the worst pair",
        "scoring.py",
        "return max(terms, default=0.0)",
        "return min(terms, default=0.0)",
        ("tests/test_scoring.py::TestWorkedExample::test_or_connective_is_80",),
    ),
    Mutant(
        "ACQUIRE divides by B's option count",
        "scoring.py",
        "        denominator = len(options_a)\n",
        "        denominator = len(options_b)\n",
        ("tests/test_scoring.py::TestWorkedExample::test_and_acquire_is_130_over_3",),
    ),
    Mutant(
        "merge does not flag B's unmatched options",
        "merger.py",
        '            annotations.append(f"// unmatched: from B: {option_b.phrase}")\n',
        "            pass\n",
        ("tests/test_merger.py::TestOptionMerging::test_worked_example_union",),
    ),
    Mutant(
        "merge does not flag a title seam",
        "merger.py",
        "        annotations.insert(0, f'// merged: title in B was \"{paragraph_b.title}\"')\n",
        "        pass\n",
        ("tests/test_merger.py::TestConflictAnnotations::test_title_conflict_keeps_a_and_notes_b",),
    ),
    Mutant(
        "merge does not flag A's unmatched options",
        "merger.py",
        '            annotations.append(f"// unmatched: from A: {option_a.phrase}")\n',
        "            pass\n",
        ("tests/test_merger.py::TestOptionMerging::test_worked_example_union",),
    ),
    Mutant(
        "merge does not flag a connective seam",
        "merger.py",
        '        annotations.insert(0, f"// merged: connective in B was {paragraph_b.connective._name_}")\n',
        "        pass\n",
        ("tests/test_merger.py::TestConflictAnnotations::test_connective_conflict_keeps_a_and_notes_b",),
    ),
    Mutant(
        "the connective mismatch message no longer says which policy governs",
        "comparison.py",
        "f\"the first policy's connective governs\",",
        "f\"policy A's connective governs\",",
        ("tests/test_comparison.py::TestDiagnostics::test_connective_mismatch_uses_a_side",),
    ),
    Mutant(
        "the missing-section message is reworded",
        "comparison.py",
        'f"section {path.dotted} has no counterpart"',
        'f"section {path.dotted} is missing"',
        ("tests/test_comparison.py::TestDiagnostics::test_missing_diagnostics_name_paths",),
    ),
    Mutant(
        "the title mismatch message drops the quotes round B's title",
        "comparison.py",
        'f"in one policy and {paragraph_b.title!r} in the other",',
        'f"in one policy and {paragraph_b.title} in the other",',
        ("tests/test_comparison.py::TestDiagnostics::test_title_mismatch",),
    ),
    Mutant(
        "merge writes the seam flags before the carried comments",
        "merger.py",
        "    comments.extend(annotations)\n",
        "    comments[:0] = annotations\n",
        ("tests/test_merger.py::TestConflictAnnotations::test_seam_flags_follow_the_comments",),
    ),
    Mutant(
        "merge does not flag the root of an adopted subtree",
        "merger.py",
        '            comments = child.comments + (f"// unmatched: from {side}",)\n',
        "            comments = child.comments\n",
        ("tests/test_whole_tree_oracle.py::test_compare_and_merge_agree_with_the_oracle",),
    ),
    Mutant(
        "the renderer drops a weight other than 1",
        "parser.py",
        "    if paragraph.weight != 1 or (\n",
        "    if (\n",
        ("tests/test_parser.py::TestRendering::test_random_policies_round_trip",),
    ),
    Mutant(
        "the renderer drops the newline that ends the document",
        "parser.py",
        '    lines.append("")\n',
        "",
        ("tests/test_cli.py::TestMerge::test_merged_policy_to_stdout",),
    ),
    Mutant(
        "the merge drops B's children under a leaf of A",
        "merger.py",
        "    if not children_a and not children_b:\n",
        "    if not children_a:\n",
        ("tests/test_merger.py::TestStructureUnion::test_b_children_of_an_a_leaf_are_adopted",),
    ),
    Mutant(
        "the renderer writes a keyword-free option without its label",
        "parser.py",
        '    return f"{label}) {option.phrase}"\n',
        "    return option.phrase\n",
        ("tests/test_parser.py::TestRendering::test_random_policies_round_trip",),
    ),
    Mutant(
        "a zero segment is refused only past the first",
        "parser.py",
        "            if 0 in path:\n",
        "            if 0 in path[1:]:\n",
        ("tests/test_parser.py::TestErrors::test_zero_segment_rejected",),
    ),
    Mutant(
        "a weight of zero is accepted",
        "parser.py",
        "                if weight == 0:\n",
        "                if weight < 0:\n",
        ("tests/test_parser.py::TestErrors::test_zero_weight_rejected",),
    ),
    Mutant(
        "the depth limit admits one segment more",
        "parser.py",
        "            if depth > MAX_DEPTH:\n",
        "            if depth > MAX_DEPTH + 1:\n",
        ("tests/test_parser.py::TestErrors::test_heading_past_the_depth_limit",),
    ),
    Mutant(
        "a repeated section number is not a duplicate",
        "parser.py",
        "            if path in seen_paths:\n",
        "            if False:\n",
        ("tests/test_parser.py::TestErrors::test_duplicate_section",),
    ),
    Mutant(
        "a section without a parent reads as out of order",
        "parser.py",
        "                if parent_path in seen_paths:\n",
        "                if True:\n",
        ("tests/test_parser.py::TestErrors::test_orphan_section",),
    ),
    Mutant(
        "an unknown connective reads as OR",
        "parser.py",
        "_CONNECTIVES.get(tokens[1].upper())",
        "_CONNECTIVES.get(tokens[1].upper(), Connective.OR)",
        ("tests/test_parser.py::TestLineDispatch::test_line",),
    ),
    Mutant(
        "a connection line before the first heading only warns",
        "parser.py",
        '                error(\n                    "CONNECTION_BEFORE_SECTION",',
        '                warn(\n                    "CONNECTION_BEFORE_SECTION",',
        ("tests/test_parser.py::TestErrors::test_connection_before_any_section",),
    ),
    Mutant(
        "an option line before the first heading only warns",
        "parser.py",
        '            error(\n                "OPTION_BEFORE_SECTION",',
        '            warn(\n                "OPTION_BEFORE_SECTION",',
        ("tests/test_parser.py::TestErrors::test_option_before_any_section",),
    ),
    Mutant(
        "option labels are never recorded",
        "parser.py",
        "            current.labels.add(label)\n",
        "",
        ("tests/test_parser.py::TestOptionParsing::test_lowercased_label_collides_with_lower_case_label",),
    ),
    Mutant(
        "an option without a phrase only warns",
        "parser.py",
        'error("EMPTY_OPTION_PHRASE"',
        'warn("EMPTY_OPTION_PHRASE"',
        ("tests/test_parser.py::TestLineDispatch::test_line",),
    ),
    Mutant(
        "a comment before the first heading is dropped without a warning",
        "parser.py",
        "            if current.path:\n                current.comments.append(line)\n",
        "            if True:\n                current.comments.append(line)\n",
        ("tests/test_parser.py::TestWarnings::test_comment_before_any_section_is_dropped",),
    ),
    Mutant(
        "a main section title is not checked for capitals",
        "parser.py",
        "            if depth == 1 and title != title.upper():\n",
        "            if depth == 0 and title != title.upper():\n",
        ("tests/test_parser.py::TestWarnings::test_lowercase_main_section_warns",),
    ),
    Mutant(
        "the depth warning starts one level lower",
        "parser.py",
        "            if depth > 4:\n",
        "            if depth > 5:\n",
        ("tests/test_parser.py::TestWarnings::test_depth_beyond_four_warns_but_parses",),
    ),
    Mutant(
        "a second connective warns only when it repeats the first",
        "parser.py",
        "            if current.connective is not Connective.NONE:\n",
        "            if current.connective is connective:\n",
        ("tests/test_parser.py::TestConnectionParsing::test_duplicate_connection_warns_last_wins",),
    ),
    Mutant(
        "an option opening with a dot does not look like a section number",
        "parser.py",
        'if "." in token and token.isascii() and token.replace(".", "").isdigit():',
        'if "." in token[1:-1] and token.isascii() and token.replace(".", "").isdigit():',
        ("tests/test_parser.py::TestLineDispatch::test_line",),
    ),
    Mutant(
        "a mixed-case option label draws no warning",
        "parser.py",
        "            if not label.islower():\n",
        "            if label.isupper():\n",
        ("tests/test_parser.py::TestLineDispatch::test_line",),
    ),
    Mutant(
        "a capitalized 'Connection:' option draws no look-alike warning",
        "parser.py",
        'head.lower().startswith("connection:")',
        'head.startswith("connection:")',
        ("tests/test_parser.py::TestConnectionParsing::test_colon_after_connection_makes_an_option",),
    ),
    Mutant(
        "a keyword in lower case draws no look-alike warning",
        "parser.py",
        'elif head in _OTHER_RFC2119_TERMS or head.removesuffix(":").upper() in KEYWORDS:',
        "elif head in _OTHER_RFC2119_TERMS:",
        ("tests/test_parser.py::TestLineDispatch::test_line",),
    ),
    Mutant(
        "an unreadable policy file reads as one that does not parse",
        "cli.py",
        '        _say(f"{path}: {exc}")\n        raise _Exit(EXIT_IO) from None\n',
        '        _say(f"{path}: {exc}")\n        return None, []\n',
        ("tests/test_cli.py::TestValidate::test_missing_file_exits_1",),
    ),
    Mutant(
        "a policy file that is not UTF-8 is an internal error",
        "cli.py",
        '    except UnicodeDecodeError as exc:\n        _say(f"{path}: not valid UTF-8: {exc}")\n',
        '    except UnicodeTranslateError as exc:\n        _say(f"{path}: not valid UTF-8: {exc}")\n',
        ("tests/test_cli.py::TestValidate::test_non_utf8_exits_2",),
    ),
    Mutant(
        "a rules file that is not UTF-8 is an internal error",
        "cli.py",
        '    except UnicodeDecodeError as exc:\n        _say(f"{rules}: not valid UTF-8: {exc}")\n',
        "",
        ("tests/test_cli.py::TestCompare::test_rules_file_that_is_not_utf8_exits_4",),
    ),
    Mutant(
        "unusable rules exit as a parse error",
        "cli.py",
        "raise _Exit(EXIT_RULES)\n",
        "raise _Exit(EXIT_PARSE)\n",
        ("tests/test_cli.py::TestCompare::test_bad_rules_syntax_exits_4",),
    ),
    Mutant(
        "a policy B that does not parse is compared",
        "cli.py",
        "    if policy_a is None or policy_b is None:\n",
        "    if policy_a is None:\n",
        ("tests/test_cli.py::TestCompare::test_parse_error_in_either_file_exits_2",),
    ),
    Mutant(
        "an output file that cannot be written is passed over",
        "cli.py",
        '        _say(f"{out}: {exc}")\n        raise _Exit(EXIT_IO) from None\n',
        '        _say(f"{out}: {exc}")\n',
        ("tests/test_cli.py::TestCompare::test_unwritable_report_exits_1",),
    ),
    Mutant(
        "a rejected verdict names no failed rule",
        "cli.py",
        '_say("verdict: rejected", *[f"  {failure.message}" for failure in verdict.failures])',
        '_say("verdict: rejected")',
        ("tests/test_cli.py::TestCompare::test_rejecting_rules_exit_3",),
    ),
)


CHILDREN = multiprocessing.get_context("forkserver")

# The phases of a property test under a mutant, and on the unmutated copy.
KILL = (Phase.explicit, Phase.reuse, Phase.generate)
REPLAY = (Phase.explicit, Phase.reuse)


def run_tests(src: Path, tests: list[str], workdir: Path, phases: tuple[Phase, ...]) -> bool:
    """Whether ``tests`` pass with cpcompat imported from ``src``, in the
    tests and in the programs they start, their property tests run in
    ``phases``. The child runs in ``workdir``, so its caches and example
    database stay out of the checkout."""
    child = CHILDREN.Process(target=_run_pytest, args=(str(src), tests, str(workdir), phases))
    child.start()
    child.join()
    return child.exitcode == 0


def _run_pytest(src: str, tests: list[str], workdir: str, phases: tuple[Phase, ...]) -> None:
    """The body of a child of ``run_tests``: it exits with pytest's code."""
    os.chdir(workdir)
    # Named here, as a CI profile turns the database off.
    database = DirectoryBasedExampleDatabase(os.path.join(workdir, "examples"))
    settings.register_profile("mutants", phases=phases, database=database)
    settings.load_profile("mutants")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.dont_write_bytecode = False
    sys.pycache_prefix = os.path.join(workdir, "pycache")
    sys.exit(pytest.main([
        "-x", "-p", "no:terminal", "-p", "no:cacheprovider",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), "-o", f"pythonpath={src}",
        *(str(ROOT / test) for test in tests),
    ]))


def copy_sources(destination: Path) -> Path:
    src = destination / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    selected = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    start = time.perf_counter()
    failures = 0
    CHILDREN.set_forkserver_preload(["hypothesis", "pytest"])
    with tempfile.TemporaryDirectory() as temp:
        work = Path(temp)
        for index, mutant in enumerate(selected):
            src = copy_sources(work / str(index))
            path = src / "cpcompat" / mutant.file
            original = path.read_text(encoding="utf-8")
            found = original.count(mutant.old)
            if found != 1:
                print(f"NOT FOUND {mutant.name}: source text occurs {found} times in {mutant.file}")
                failures += 1
                continue
            mutated = original.replace(mutant.old, mutant.new)
            try:
                compile(mutated, str(path), "exec")
            except SyntaxError as exc:
                print(f"BROKEN {mutant.name}: {exc}")
                failures += 1
                continue
            path.write_text(mutated, encoding="utf-8")
            survived = run_tests(src, list(mutant.tests), work, KILL)
            print(f"{'SURVIVED' if survived else 'killed'} {mutant.name}")
            failures += survived
        tests = sorted({test for mutant in selected for test in mutant.tests})
        if not run_tests(copy_sources(work / "unmutated"), tests, work, REPLAY):
            print("the tests fail on the unmutated sources", file=sys.stderr)
            return 1
    print(f"{len(selected)} mutants, {failures} not killed, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
