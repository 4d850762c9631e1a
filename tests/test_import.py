import subprocess
import sys
from pathlib import Path

import pytest

import aeslab
from aeslab.core import key_expansion
from aeslab.gf256 import MUL_TABLE, SBOX_PAIR
from aeslab.variants import T_TABLES, make_plan


def test_import_leaves_out_heavy_modules():
    # -I -S: no site hooks or .pth files that would preload these.
    src = Path(aeslab.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import aeslab; "
            "print(*(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


@pytest.mark.parametrize("record,field", [
    (SBOX_PAIR, "forward"),
    (MUL_TABLE, "rows"),
    (T_TABLES, "enc"),
    (make_plan("opt1", 10), "runs"),
    (key_expansion(bytes(16)), "enc_words"),
], ids=["sbox", "mul_table", "t_tables", "plan", "key_schedule"])
def test_shared_records_are_read_only(record, field):
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value
