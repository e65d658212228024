"""The README's command-line documentation against the parser it describes."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from edxmine.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _subcommands() -> dict[str, set[str]]:
    """Each subcommand's long options, ``--help`` left out."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for action in parser._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, parser in sub.choices.items()
    }


SUBCOMMANDS = _subcommands()


def _command_lines() -> list[str]:
    """Every ``edxmine ...`` line of the README's shell blocks, comments cut."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    return [
        line.split("#", 1)[0]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("edxmine ")
    ]


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_readme_names_every_option(command):
    absent = {opt for opt in SUBCOMMANDS[command] if not re.search(rf"{opt}(?![\w-])", README)}
    assert not absent, f"{command}: README names no {sorted(absent)}"


def test_readme_commands_use_only_accepted_options():
    lines = _command_lines()
    assert {shlex.split(line)[1] for line in lines} == set(SUBCOMMANDS)
    for line in lines:
        _, command, *words = shlex.split(line)
        unknown = {w.split("=", 1)[0] for w in words if w.startswith("--")} - SUBCOMMANDS[command]
        assert not unknown, f"{line.strip()}: {command} takes no {sorted(unknown)}"
