import subprocess
import sys
from pathlib import Path

import pytest

import aeslab
from aeslab.core import key_expansion
from aeslab.gf256 import MUL_TABLE, SBOX_PAIR
from aeslab.variants import T_TABLES, VARIANTS, make_plan


def _modules_loaded_by(module: str, names: tuple) -> list:
    """Those of names that importing module loads in a fresh interpreter.
    -I -S: no site hooks or .pth files that would preload them."""
    src = Path(aeslab.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); __import__(sys.argv[2]); "
            "print(*(m for m in sys.argv[3:] if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src), module, *names],
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_leaves_out_heavy_modules():
    heavy = ("dataclasses", "typing", "inspect", "collections")
    assert _modules_loaded_by("aeslab", heavy) == []


def test_cli_import_leaves_out_subcommand_modules():
    # Each is imported by the subcommand that uses it.
    subcommand_modules = ("aeslab.bench", "aeslab.analysis", "aeslab.costmodel")
    assert _modules_loaded_by("aeslab.cli", subcommand_modules) == []


@pytest.mark.parametrize("record,field", [
    (SBOX_PAIR, "forward"),
    (MUL_TABLE, "rows"),
    (T_TABLES, "enc"),
    (make_plan("opt1", 10), "runs"),
    (key_expansion(bytes(16)), "enc_words"),
    (VARIANTS["optf"], "tables"),
], ids=["sbox", "mul_table", "t_tables", "plan", "key_schedule", "variant"])
def test_shared_records_are_read_only(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value
