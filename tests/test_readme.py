"""The README runs as written: every fenced ``dilink`` command and the
Python quickstart."""

import argparse
import json
import re
import shlex
from pathlib import Path

from dilink.workbench.cli import _COMMANDS, GENERATORS, build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)


def test_every_fenced_command_succeeds(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line)[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("dilink ")
    ]
    assert len(commands) == 20
    for argv in commands:
        code = main(argv)
        rep = json.loads(capsys.readouterr().out)
        assert (code, rep["ok"]) == (0, True), (argv, rep.get("error"))


def test_python_quickstart_runs(capsys):
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(0, 1, 2, 3) [1, 1, 1, 1]\n"


def test_listed_kinds_match_the_generator_table():
    (listed,) = re.findall(r"`--kind` one of (.*?)\)", README)
    assert re.findall(r"`(\w+)`", listed) == list(GENERATORS)


def test_subcommand_table_matches_the_parser():
    (table,) = re.findall(r"\| Subcommand .*?\n\n", README, flags=re.S)
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert re.findall(r"^\| `([\w-]+)`", table, flags=re.M) == list(sub.choices)


def test_exit_code_paragraph_names_every_positive_flag():
    # each "a value below N for ..." clause of the exit-code paragraph, read
    # as its "`--flag` and `--flag` of `command`" parts, against the least
    # values of the CLI's option table
    (para,) = re.findall(r"Exit codes:.*?\n\n", README, flags=re.S)
    para = " ".join(para.split())
    named = {}
    for least, clause in re.findall(r"a value below (\d+) for (.*?)(?=, or a value|, reported)", para):
        for flags, command in re.findall(r"((?:`--[\w-]+`(?: and )?)+) of `([\w-]+)`", clause):
            named.setdefault(int(least), {})[command] = set(re.findall(r"`(--[\w-]+)`", flags))
    bounds = {}
    for command, (_, _, flags) in _COMMANDS.items():
        for flag, (_, least) in flags.items():
            if least is not None:
                bounds.setdefault(least, {}).setdefault(command, set()).add(flag)
    assert named == bounds
