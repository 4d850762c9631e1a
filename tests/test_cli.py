import csv
import random

import pytest

from aeslab.bmp import parse_bmp
from aeslab.cli import EXIT_INPUT, EXIT_INTEGRITY, EXIT_OK, EXIT_USAGE, dispatch

KEY = "000102030405060708090a0b0c0d0e0f"
IV = "membered".encode().hex() * 2


def run(*argv):
    return dispatch(list(argv))


@pytest.fixture
def raw_file(tmp_path):
    path = tmp_path / "payload.bin"
    path.write_bytes(random.Random(80).randbytes(1000))
    return path


def test_help_exits_zero(capsys):
    assert run("--help") == EXIT_OK
    assert "encrypt" in capsys.readouterr().out


def test_raw_ecb_roundtrip(tmp_path, raw_file):
    ct = tmp_path / "out.enc"
    pt = tmp_path / "out.dec"
    assert run("encrypt", "--mode", "ecb", "--key-hex", KEY,
               "--in", str(raw_file), "--out", str(ct)) == EXIT_OK
    assert run("decrypt", "--mode", "ecb", "--key-hex", KEY,
               "--in", str(ct), "--out", str(pt)) == EXIT_OK
    assert pt.read_bytes() == raw_file.read_bytes()
    assert len(ct.read_bytes()) == 1008  # padded to the next block


def test_raw_cbc_roundtrip_with_embedded_iv(tmp_path, raw_file):
    ct = tmp_path / "out.enc"
    pt = tmp_path / "out.dec"
    assert run("encrypt", "--mode", "cbc", "--key-hex", KEY, "--seed", "3",
               "--in", str(raw_file), "--out", str(ct)) == EXIT_OK
    assert len(ct.read_bytes()) == 16 + 1008  # IV prefix + ciphertext
    assert run("decrypt", "--mode", "cbc", "--key-hex", KEY,
               "--in", str(ct), "--out", str(pt)) == EXIT_OK
    assert pt.read_bytes() == raw_file.read_bytes()


def test_raw_cbc_explicit_iv(tmp_path, raw_file):
    ct = tmp_path / "out.enc"
    pt = tmp_path / "out.dec"
    assert run("encrypt", "--mode", "cbc", "--key-hex", KEY, "--iv-hex", IV,
               "--in", str(raw_file), "--out", str(ct)) == EXIT_OK
    body = ct.read_bytes()
    assert body[:16].hex() == IV
    # decrypt ignoring the prefix but passing the IV explicitly
    trimmed = ct.with_suffix(".trimmed")
    trimmed.write_bytes(body[16:])
    assert run("decrypt", "--mode", "cbc", "--key-hex", KEY, "--iv-hex", IV,
               "--in", str(trimmed), "--out", str(pt)) == EXIT_OK
    assert pt.read_bytes() == raw_file.read_bytes()


def test_wrong_key_is_integrity_error(tmp_path, raw_file):
    ct = tmp_path / "out.enc"
    pt = tmp_path / "out.dec"
    run("encrypt", "--mode", "cbc", "--key-hex", KEY, "--seed", "4",
        "--in", str(raw_file), "--out", str(ct))
    wrong = "ff" * 16
    assert run("decrypt", "--mode", "cbc", "--key-hex", wrong,
               "--in", str(ct), "--out", str(pt)) == EXIT_INTEGRITY


def test_usage_and_input_errors(tmp_path, raw_file):
    out = str(tmp_path / "x")
    # IV forbidden for ECB
    assert run("encrypt", "--mode", "ecb", "--key-hex", KEY, "--iv-hex", IV,
               "--in", str(raw_file), "--out", out) == EXIT_USAGE
    # missing key
    assert run("encrypt", "--mode", "ecb",
               "--in", str(raw_file), "--out", out) == EXIT_USAGE
    # key size mismatch
    assert run("encrypt", "--mode", "ecb", "--key-hex", KEY, "--key-size", "256",
               "--in", str(raw_file), "--out", out) == EXIT_USAGE
    # malformed hex
    assert run("encrypt", "--mode", "ecb", "--key-hex", "zz" * 16,
               "--in", str(raw_file), "--out", out) == EXIT_INPUT
    # wrong key length
    assert run("encrypt", "--mode", "ecb", "--key-hex", "aa" * 10,
               "--in", str(raw_file), "--out", out) == EXIT_INPUT
    # missing input file
    assert run("encrypt", "--mode", "ecb", "--key-hex", KEY,
               "--in", str(tmp_path / "absent"), "--out", out) == EXIT_INPUT
    # unknown flag
    assert run("encrypt", "--mode", "ecb", "--key-hex", KEY, "--frobnicate",
               "--in", str(raw_file), "--out", out) == EXIT_USAGE
    # a flag value out of range is a usage error in every subcommand
    for command in ("encrypt", "decrypt"):
        for rounds in ("0", "-3"):
            assert run(command, "--mode", "ecb", "--key-hex", KEY, "--rounds", rounds,
                       "--in", str(raw_file), "--out", out) == EXIT_USAGE
    for flag in ("--width", "--height"):
        assert run("make-image", "--pattern", "gradient", flag, "0",
                   "--out", out) == EXIT_USAGE


def test_make_image_rejects_dimensions_past_bmp_size_limit(tmp_path, capsys):
    # 40000 x 40000 pixels need 4.8 GB, past the 4-byte file size field;
    # refused before any pixel is built.
    out = tmp_path / "huge.bmp"
    assert run("make-image", "--pattern", "constant-color", "--width", "40000",
               "--height", "40000", "--out", str(out)) == EXIT_USAGE
    assert "4 GiB" in capsys.readouterr().err
    assert not out.exists()


def test_key_file(tmp_path, raw_file):
    key_file = tmp_path / "key.hex"
    key_file.write_text(KEY + "\n")
    ct = tmp_path / "out.enc"
    assert run("encrypt", "--mode", "ecb", "--key-file", str(key_file),
               "--in", str(raw_file), "--out", str(ct)) == EXIT_OK


def test_make_image_and_image_mode_ecb_leak(tmp_path, capsys):
    plain = tmp_path / "plain.bmp"
    enc = tmp_path / "enc.bmp"
    assert run("make-image", "--pattern", "constant-color",
               "--width", "200", "--height", "200", "--out", str(plain)) == EXIT_OK
    assert run("encrypt", "--mode", "ecb", "--format", "bmp-image-mode",
               "--key-hex", KEY, "--variant", "optf",
               "--in", str(plain), "--out", str(enc)) == EXIT_OK
    plain_bytes = plain.read_bytes()
    enc_bytes = enc.read_bytes()
    assert len(enc_bytes) == len(plain_bytes)  # size preserved
    assert enc_bytes[:54] == plain_bytes[:54]  # header preserved
    capsys.readouterr()
    assert run("analyze", "--in", str(plain), "--compare", str(enc),
               "--report", "csv") == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("image,")
    enc_row = out[2].split(",")
    distinct_ratio = float(enc_row[5])
    assert distinct_ratio < 0.01  # constant image under ECB barely varies


def test_image_mode_cbc_roundtrip(tmp_path, capsys):
    plain = tmp_path / "plain.bmp"
    enc = tmp_path / "enc.bmp"
    dec = tmp_path / "dec.bmp"
    run("make-image", "--pattern", "two-zone", "--width", "64", "--height", "64",
        "--out", str(plain))
    capsys.readouterr()
    assert run("encrypt", "--mode", "cbc", "--format", "bmp-image-mode",
               "--key-hex", KEY, "--seed", "9",
               "--in", str(plain), "--out", str(enc)) == EXIT_OK
    line = capsys.readouterr().out.strip()
    assert line.startswith("iv=")
    iv_hex = line.removeprefix("iv=")
    assert len(enc.read_bytes()) == len(plain.read_bytes())
    # decrypt without the IV is a usage error; with it, a roundtrip
    assert run("decrypt", "--mode", "cbc", "--format", "bmp-image-mode",
               "--key-hex", KEY, "--in", str(enc), "--out", str(dec)) == EXIT_USAGE
    assert run("decrypt", "--mode", "cbc", "--format", "bmp-image-mode",
               "--key-hex", KEY, "--iv-hex", iv_hex,
               "--in", str(enc), "--out", str(dec)) == EXIT_OK
    assert dec.read_bytes() == plain.read_bytes()


def test_image_mode_decrypt_with_wrong_key_is_structurally_valid(tmp_path):
    # image mode carries no padding, so a wrong key yields garbage pixels
    # in a well-formed BMP rather than an integrity failure
    plain = tmp_path / "plain.bmp"
    enc = tmp_path / "enc.bmp"
    dec = tmp_path / "dec.bmp"
    run("make-image", "--pattern", "constant-color", "--width", "32",
        "--height", "32", "--out", str(plain))
    run("encrypt", "--mode", "ecb", "--format", "bmp-image-mode",
        "--key-hex", KEY, "--in", str(plain), "--out", str(enc))
    assert run("decrypt", "--mode", "ecb", "--format", "bmp-image-mode",
               "--key-hex", "ff" * 16, "--in", str(enc), "--out", str(dec)) == EXIT_OK
    parse_bmp(dec.read_bytes())  # parses fine; contents are noise


def test_analyze_text_report(tmp_path, capsys):
    plain = tmp_path / "plain.bmp"
    run("make-image", "--pattern", "gradient", "--width", "40", "--height", "40",
        "--out", str(plain))
    capsys.readouterr()
    assert run("analyze", "--in", str(plain)) == EXIT_OK
    out = capsys.readouterr().out
    assert "entropy_bits_per_byte" in out
    assert "chi2_blue" in out


def test_analyze_histogram_output(tmp_path):
    plain = tmp_path / "plain.bmp"
    hist = tmp_path / "hist.csv"
    run("make-image", "--pattern", "constant-color", "--width", "16",
        "--height", "16", "--out", str(plain))
    assert run("analyze", "--in", str(plain), "--report", "csv",
               "--out", str(tmp_path / "metrics.csv"),
               "--hist-out", str(hist)) == EXIT_OK
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "image,bin,blue,green,red"
    assert len(lines) == 257


def test_analyze_rejects_non_bmp(tmp_path, raw_file):
    assert run("analyze", "--in", str(raw_file)) == EXIT_INPUT


def test_cost_prints_reference_values(capsys):
    assert run("cost", "--nb", "4", "--nr", "10",
               "--ta", "1", "--to", "1", "--ts", "1") == EXIT_OK
    out = capsys.readouterr().out
    assert "6168" in out
    assert "11064" in out


def test_cost_grid_csv(capsys):
    assert run("cost", "--grid") == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "nb,nr,key_bits,encrypt_cycles,decrypt_cycles"
    assert len(lines) == 10
    assert any(line.startswith("4,10,128,6168,11064") for line in lines)


def test_cost_rejects_bad_params(capsys):
    assert run("cost", "--nb", "0") == EXIT_USAGE
    for value in ("-1", "nan", "inf"):
        assert run("cost", "--ta", value) == EXIT_USAGE
        assert run("cost", "--ts", value, "--grid") == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_bench_cli_small_run(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    assert run("bench", "--sizes", "512", "--key-sizes", "128",
               "--variants", "base,optf", "--modes", "ecb", "--reps", "3",
               "--warmup", "0", "--out", str(out_csv)) == EXIT_OK
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("label,")
    assert len(lines) == 3
    summary = capsys.readouterr().out
    assert "optf" in summary and "vs base" in summary


@pytest.mark.parametrize("flag,value", [
    ("--modes", "ctr"),
    ("--ops", "frobnicate"),
    ("--key-sizes", "512"),
    ("--variants", "turbo"),
    ("--rounds", "0"),
    ("--sweep-rounds", "0,2"),
])
def test_bench_cli_rejects_unknown_names(capsys, flag, value):
    assert run("bench", "--sizes", "512", flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert value in captured.err


def test_bench_cli_matrix_defaults(tmp_path):
    out_csv = tmp_path / "bench.csv"
    assert run("bench", "--sizes", "512", "--reps", "3", "--warmup", "0",
               "--out", str(out_csv)) == EXIT_OK
    rows = list(csv.DictReader(out_csv.open()))
    cells = {(r["key_bits"], r["n_r"], r["variant"], r["mode"], r["op"]) for r in rows}
    assert len(rows) == len(cells) == 3 * 4 * 2
    assert {c[:2] for c in cells} == {("128", "10"), ("192", "12"), ("256", "14")}
    assert {c[2] for c in cells} == {"base", "opt1", "opt2", "optf"}
    assert {c[3:] for c in cells} == {("ecb", "encrypt"), ("cbc", "encrypt")}


@pytest.mark.parametrize("other_run", [("--sweep-rounds", "1,2"), ("--micro",)],
                         ids=["sweep", "micro"])
@pytest.mark.parametrize("flag,value", [
    ("--key-sizes", "256"),
    ("--variants", "optf"),
    ("--modes", "cbc"),
    ("--ops", "decrypt"),
    ("--rounds", "4"),
])
def test_bench_cli_matrix_options_refused_outside_matrix(capsys, other_run, flag, value):
    assert run("bench", "--sizes", "512", "--reps", "3", "--warmup", "0",
               "--micro-iters", "300", *other_run, flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert other_run[0] in captured.err and flag in captured.err


@pytest.mark.parametrize("run_args,flag,value", [
    (("--micro",), "--sizes", "512"),
    (("--micro",), "--warmup", "0"),
    (("--micro",), "--sweep-rounds", "1,2"),
    (("--micro",), "--reps", "2"),
    ((), "--micro-iters", "300"),
    (("--sweep-rounds", "1,2"), "--micro-iters", "300"),
], ids=["micro-sizes", "micro-warmup", "micro-sweep", "micro-reps", "matrix-iters",
        "sweep-iters"])
def test_bench_cli_refuses_options_its_run_ignores(capsys, run_args, flag, value):
    base = ("--micro-iters", "300") if "--micro" in run_args else ("--sizes", "512")
    assert run("bench", *base, "--reps", "3", *run_args, flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


@pytest.mark.parametrize("argv,flags", [
    (("--sweep-rounds", "1,2", "--sizes", "64", "--reps", "0"), ("--reps",)),
    (("--sweep-rounds", "1,2", "--sizes", "64", "--reps", "2"), ("--reps",)),
    (("--sweep-rounds", "1,2", "--sizes", "64", "--reps", "3", "--warmup", "-3"), ("--warmup",)),
    (("--micro", "--micro-iters", "2", "--reps", "3"), ("--micro-iters", "--reps")),
    (("--sizes", "64", "--reps", "2"), ("--reps",)),
    (("--sizes", "64", "--reps", "3", "--warmup", "-1"), ("--warmup",)),
    (("--micro", "--reps", "1"), ("--reps",)),
], ids=["sweep-reps-0", "sweep-reps-2", "sweep-warmup", "micro-iters-below-reps",
        "matrix-reps-2", "matrix-warmup", "micro-reps-1"])
def test_bench_cli_refuses_bad_counts(capsys, argv, flags):
    assert run("bench", *argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for flag in flags:
        assert flag in captured.err


def test_bench_cli_sweep(tmp_path):
    out_csv = tmp_path / "sweep.csv"
    assert run("bench", "--sizes", "512", "--sweep-rounds", "1,2",
               "--reps", "3", "--warmup", "0", "--out", str(out_csv)) == EXIT_OK
    assert len(out_csv.read_text().strip().splitlines()) == 5


def test_bench_cli_micro(tmp_path):
    out_csv = tmp_path / "micro.csv"
    assert run("bench", "--micro", "--micro-iters", "300", "--reps", "3",
               "--out", str(out_csv)) == EXIT_OK
    assert len(out_csv.read_text().strip().splitlines()) == 9


def test_nonstandard_round_count_roundtrip(tmp_path, raw_file):
    ct = tmp_path / "out.enc"
    pt = tmp_path / "out.dec"
    assert run("encrypt", "--mode", "ecb", "--key-hex", KEY, "--key-size", "128",
               "--rounds", "4", "--variant", "opt1",
               "--in", str(raw_file), "--out", str(ct)) == EXIT_OK
    # decrypting with the standard round count is simply a wrong cipher
    assert run("decrypt", "--mode", "ecb", "--key-hex", KEY,
               "--in", str(ct), "--out", str(pt)) == EXIT_INTEGRITY
    assert run("decrypt", "--mode", "ecb", "--key-hex", KEY, "--rounds", "4",
               "--in", str(ct), "--out", str(pt)) == EXIT_OK
    assert pt.read_bytes() == raw_file.read_bytes()


def test_module_entry_point(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    import aeslab

    # -m finds the package in the working directory, so the child runs
    # the aeslab under test whatever PYTHONPATH holds.
    proc = subprocess.run(
        [sys.executable, "-m", "aeslab", "cost", "--nb", "4", "--nr", "10",
         "--ta", "1", "--to", "1", "--ts", "1"],
        capture_output=True, text=True, cwd=Path(aeslab.__file__).parents[1],
    )
    assert proc.returncode == EXIT_OK
    assert "6168" in proc.stdout and "11064" in proc.stdout
