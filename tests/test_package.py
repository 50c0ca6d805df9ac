import importlib
import os
import subprocess
import sys

import pytest

import permitmc


def test_public_names_resolve_to_their_submodule_objects():
    assert len(permitmc.__all__) == len(set(permitmc.__all__))
    listed = dir(permitmc)
    for name in permitmc.__all__:
        module = importlib.import_module(f"permitmc.{permitmc._SOURCE[name]}")
        assert getattr(permitmc, name) is getattr(module, name), name
        assert name in listed, name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="^module 'permitmc' has no attribute 'nope'$"):
        permitmc.nope
    assert not hasattr(permitmc, "__wrapped__")


def test_no_call_imports_dataclasses_or_the_source_tools():
    # The records are plain classes and the fixture data is read through the
    # package's loader, so neither the CLI nor any public name pulls in
    # dataclasses or inspect, with ast, dis and tokenize behind it.
    script = (
        "import contextlib, io, sys\n"
        "import permitmc, permitmc.cli\n"
        "for name in permitmc.__all__:\n"
        "    getattr(permitmc, name)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = permitmc.cli.main(['fixtures', '--run'])\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(code, *[m for m in heavy if m in sys.modules])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


def test_cli_import_loads_neither_pathlib_nor_random():
    # Only `fixtures --export` needs pathlib and only the seeded subcommands
    # need random, so both are imported in those handlers. `-S` skips site,
    # whose .pth files may import either module before permitmc does.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, permitmc.cli\n"
         "print(*[m for m in ('pathlib', 'random') if m in sys.modules])\n"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
