import subprocess
import sys
from pathlib import Path

import pytest

import aeslab
from aeslab.core import key_expansion
from aeslab.gf256 import INV_S_BOX, MUL_TABLE, S_BOX
from aeslab.variants import T_DEC, T_ENC, VARIANTS, make_plan


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
    (S_BOX, 0),
    (MUL_TABLE, "rows"),
    (T_ENC, 0),
    (make_plan("opt1", 10), "runs"),
    (key_expansion(bytes(16)), "enc_words"),
    (VARIANTS["optf"], 1),
], ids=["sbox", "mul_table", "t_tables", "plan", "key_schedule", "variant"])
def test_shared_records_are_read_only(record, field):
    # An int field is an item of a plain immutable value (bytes or tuple).
    if isinstance(field, int):
        value = record[field]
        with pytest.raises(TypeError):
            record[field] = value
        with pytest.raises(TypeError):
            del record[field]
    else:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert (record[field] if isinstance(field, int) else getattr(record, field)) is value


def test_shared_tables_are_immutable_values():
    assert type(S_BOX) is bytes and type(INV_S_BOX) is bytes
    assert type(T_ENC) is tuple and type(T_DEC) is tuple
    for table in T_ENC + T_DEC:
        assert type(table) is tuple
        with pytest.raises(TypeError):
            table[0] = 0
    for row in VARIANTS.values():
        assert type(row) is tuple
