import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import aeslab
from aeslab.core import key_expansion
from aeslab.gf256 import INV_S_BOX, MUL_TABLE, S_BOX, ReadOnly
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


def test_public_names_resolve_and_are_listed():
    # A stale __all__ entry makes "from aeslab import *" raise.
    namespace = {}
    exec("from aeslab import *", namespace)
    assert set(aeslab.__all__) <= namespace.keys()
    imported = [name for name, value in vars(aeslab).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)]
    assert sorted(aeslab.__all__) == sorted(imported)


def test_cli_import_leaves_out_subcommand_modules():
    # Each is imported by the subcommand that uses it.
    subcommand_modules = ("aeslab.bench", "aeslab.analysis", "aeslab.costmodel")
    assert _modules_loaded_by("aeslab.cli", subcommand_modules) == []


@pytest.mark.parametrize("record,field", [
    (S_BOX, 0),
    (MUL_TABLE, 0),
    (T_ENC, 0),
    (make_plan("opt1", 10), "runs"),
    (key_expansion(bytes(16)), "enc_words"),
    (VARIANTS["opt2"], 1),
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


def test_read_only_records_have_no_lookup_hooks():
    # A hook on attribute lookup would stop CPython 3.11 specializing the
    # records' field reads, which the block kernels make on every block.
    for path in Path(aeslab.__file__).parent.glob("*.py"):
        if not path.stem.startswith("__"):
            importlib.import_module(f"aeslab.{path.stem}")
    records = ReadOnly.__subclasses__()
    assert sorted(cls.__name__ for cls in records) == ["KeySchedule", "VariantPlan"]
    for cls in records:
        assert not hasattr(cls, "__getattr__"), cls
        assert cls.__getattribute__ is object.__getattribute__, cls


def test_shared_tables_are_immutable_values():
    assert type(S_BOX) is bytes and type(INV_S_BOX) is bytes
    assert type(MUL_TABLE) is tuple and {type(row) for row in MUL_TABLE} == {bytes}
    assert type(T_ENC) is tuple and type(T_DEC) is tuple
    for table in T_ENC + T_DEC:
        assert type(table) is tuple
        with pytest.raises(TypeError):
            table[0] = 0
    for row in VARIANTS.values():
        assert type(row) is tuple
