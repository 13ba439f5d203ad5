"""The README's examples run as written.

Every ``quadfrob ...`` line of the "Command line" block runs through
``cli.main`` in a temporary directory and must exit 0; ``link corpus``
runs first, so the diagrams the other lines read exist, and the
algebra-parameter JSON of "File formats" is written to
``my_algebra.json``.  The block runs once, under ``sys.setprofile``:
``test_public_surface.py`` reads the code it entered.  The "Python quick
start" block is executed.  The check names that exit 5 can report, as
README's "Checks on every computation" and ``cli``'s docstring list them,
are those of the ``CheckFailedError`` subclasses of the package.
"""

import contextlib
import functools
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import sys
import tempfile
from pathlib import Path

import quadfrob
from quadfrob import cli
from quadfrob.cli import main
from quadfrob.ring import CheckFailedError

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading, lang, after=None):
    """The first ``lang`` code block after ``heading`` (and after the line
    ``after``, when given)."""
    text = README[README.index(heading):]
    if after is not None:
        text = text[text.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def _commands():
    lines = [line for line in _block("## Command line", "sh").splitlines() if line.startswith("quadfrob ")]
    argvs = [shlex.split(line)[1:] for line in lines]
    return sorted(argvs, key=lambda argv: argv[:2] != ["link", "corpus"])


COMMANDS = _commands()


def test_the_command_block_is_read():
    assert len(COMMANDS) == 12
    assert COMMANDS[0][:2] == ["link", "corpus"]


def entered_by(call):
    """The code objects whose frames ``call()`` enters."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return entered


@functools.cache
def command_block_run():
    """Runs the command block once: each command's (argv, exit code,
    stderr), and the code objects the run entered."""
    algebra = json.loads(_block("## File formats", "json", after="Algebra parameters:"))
    results = []

    def run():
        for argv in COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                results.append((argv, main(argv), err.getvalue()))

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("my_algebra.json").write_text(json.dumps(algebra), encoding="utf-8")
            entered = entered_by(run)
        finally:
            os.chdir(cwd)
    return results, entered


def test_commands_exit_zero():
    for argv, code, err in command_block_run()[0]:
        assert code == 0, (argv, err)


def test_python_quick_start():
    code = _block("## Python quick start", "python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["alg"].kernel_m_analysis().iso_to_A


def _check_names():
    """The ``check`` of every CheckFailedError subclass in the package."""
    for module in pkgutil.iter_modules(quadfrob.__path__):
        if module.name != "__main__":
            importlib.import_module(f"quadfrob.{module.name}")
    names, todo = [], [CheckFailedError]
    while todo:
        subs = todo.pop().__subclasses__()
        names += [cls.check for cls in subs if cls.__module__.startswith("quadfrob.")]
        todo += subs
    return sorted(names)


def test_the_listed_check_names_are_the_checks_raised():
    section = README[README.index("**Checks on every computation.**"):]
    section = section[:section.index("\n\n", section.index("\n- "))]
    in_readme = re.findall(r"^- `(\w+)`", section, re.M)
    in_cli = re.search(r"with <check> one of\n\n(.*?)\n\n", cli.__doc__, re.S).group(1).split()
    assert sorted(in_readme) == sorted(in_cli) == _check_names()
