"""Docs cannot name a flag that is gone.

Every ``examples/<script>.py …`` command the README, ``docs/*.md`` and the
verify skill spell out is checked against that script's own argument parser
(``build_parser()``), so removing or renaming a flag without fixing the prose
that advertises it fails tier-1.
"""

import re
from pathlib import Path

import pytest

from _helpers import load_example

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
SCRIPTS = ("train_decima_tpch", "run_policy_server", "run_policy_loadgen")
# A script path and the words after it, up to whatever ends a command in
# prose or a shell block: a backtick, a pipe, a comment, ``&`` or ``)``.
MENTION = re.compile(r"examples/(\w+)\.py((?:[ \t]+[^\s`|#&)]+)*)")


def unknown_flags(text, parsers):
    """``(script, flag)`` for every ``--flag`` in ``text`` its script lacks."""
    text = text.replace("\\\n", " ")  # shell line continuations
    for match in MENTION.finditer(text):
        script, words = match.group(1), match.group(2).split()
        if script not in parsers:
            continue
        known = parsers[script]._option_string_actions
        for word in words:
            flag = word.split("=", 1)[0]
            if flag.startswith("--") and flag not in known:
                yield script, flag


@pytest.fixture(scope="module")
def parsers():
    return {script: load_example(script).build_parser() for script in SCRIPTS}


@pytest.mark.parametrize(
    "document", [p for p in DOCUMENTS if p.exists()], ids=lambda p: p.name
)
def test_documented_example_flags_exist(document, parsers):
    stale = sorted(set(unknown_flags(document.read_text(), parsers)))
    assert not stale, (
        f"{document.relative_to(ROOT)} shows flags these examples no longer "
        f"take: {stale}"
    )


def test_the_check_sees_the_commands_and_catches_a_removed_flag(parsers):
    readme = (ROOT / "README.md").read_text().replace("\\\n", " ")
    mentioned = {match.group(1) for match in MENTION.finditer(readme)}
    assert set(SCRIPTS) <= mentioned
    removed = (
        "python examples/run_policy_server.py --run-dir runs/tpch --port 5555 &\n"
        "python examples/train_decima_tpch.py --iterations 2 \\\n"
        "    --checkpoint=/tmp/model.npz   # gone\n"
        "`examples/run_policy_server.py --checkpoint <file>` serves it"
    )
    assert sorted(unknown_flags(removed, parsers)) == [
        ("run_policy_server", "--checkpoint"),
        ("run_policy_server", "--run-dir"),
        ("train_decima_tpch", "--checkpoint"),
    ]
