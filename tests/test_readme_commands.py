"""Every ``verisim`` command in README.md's code blocks must parse, every
``--flag`` the README names, in prose too, must be a CLI option, every CLI
option must be named in the README, and the README's example scenario must
load.

Only the parser and the scenario reader run: no command is executed.  A flag
that the CLI no longer has, a misspelt one, an option the README never
explains, or a scenario field the reader no longer takes fails here.
"""

import argparse
import pathlib
import re
import shlex

import pytest

from verisim.cli import _load_scenarios, build_parser

README = pathlib.Path(__file__).parent.parent / "README.md"


def readme_commands() -> list:
    """The argv of each ``verisim`` line in the README's fenced code blocks,
    with backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("verisim "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse(capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"gen-data", "fit", "sample", "analytic", "simulate", "validate"}
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: verisim {shlex.join(argv)}\n{capsys.readouterr().err}")


def parser_flags() -> set:
    """Every option string of every ``build_parser()`` subcommand."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {flag for command in commands.choices.values() for action in command._actions for flag in action.option_strings}


def test_readme_names_only_real_flags():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    assert "--k-max" in named
    assert sorted(named - parser_flags()) == []
    # and the other way: every option but argparse's own help is explained
    assert sorted(parser_flags() - named - {"-h", "--help"}) == []


def test_readme_example_scenario_loads(tmp_path):
    (example,) = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    path = tmp_path / "scenario.json"
    path.write_text(example, encoding="utf-8")
    (config,) = _load_scenarios(path)
    assert config.miners[0].id == "skip"
