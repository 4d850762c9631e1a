import argparse
import csv
import io
import random
import re
import shlex
import tracemalloc
from pathlib import Path

import pytest

from aeslab import modes
from aeslab.bmp import parse_bmp
from aeslab.cli import EXIT_INPUT, EXIT_INTEGRITY, EXIT_OK, EXIT_USAGE, build_parser, dispatch
from aeslab.modes import CHUNK

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
    assert run("encrypt", "--mode", "cbc", "--key-hex", KEY,
               "--in", str(raw_file), "--out", str(ct)) == EXIT_OK
    assert len(ct.read_bytes()) == 16 + 1008  # IV prefix + ciphertext
    assert run("decrypt", "--mode", "cbc", "--key-hex", KEY,
               "--in", str(ct), "--out", str(pt)) == EXIT_OK
    assert pt.read_bytes() == raw_file.read_bytes()


@pytest.mark.parametrize("iv_source", ["drawn", "iv-hex"])
@pytest.mark.parametrize("fmt", ["raw", "bmp-image-mode"])
@pytest.mark.parametrize("mode", ["ecb", "cbc"])
def test_decrypt_with_the_encrypt_flags_returns_the_input_or_exits_2(
        tmp_path, capsys, raw_file, mode, fmt, iv_source):
    # Decrypting with the flags that encrypted a file gives back its
    # bytes, or refuses with exit 2 and no --out; it never exits 0 with
    # other bytes.  A drawn IV is passed back only where the file does
    # not carry it: bmp-image-mode CBC.
    src = raw_file
    if fmt != "raw":
        src = tmp_path / "plain.bmp"
        assert run("make-image", "--pattern", "gradient", "--width", "8", "--height", "8",
                   "--out", str(src)) == EXIT_OK
    flags = ["--mode", mode, "--format", fmt, "--key-hex", KEY]
    if iv_source == "iv-hex":
        flags += ["--iv-hex", IV]
    ct, back = tmp_path / "out.enc", tmp_path / "out.dec"
    capsys.readouterr()
    code = run("encrypt", *flags, "--in", str(src), "--out", str(ct))
    if mode == "ecb" and iv_source == "iv-hex":  # ECB carries no IV
        assert code == EXIT_USAGE and not ct.exists()
        return
    assert code == EXIT_OK
    if mode == "cbc" and fmt != "raw" and iv_source == "drawn":
        flags += ["--iv-hex", capsys.readouterr().out.strip().removeprefix("iv=")]
    code = run("decrypt", *flags, "--in", str(ct), "--out", str(back))
    if mode == "cbc" and fmt == "raw" and iv_source == "iv-hex":
        # Raw CBC output is IV || C, and decrypt reads the IV from it,
        # with or without the prefix left on the file.
        assert ct.read_bytes()[:16].hex() == IV
        trimmed = ct.with_suffix(".trimmed")
        trimmed.write_bytes(ct.read_bytes()[16:])
        assert run("decrypt", *flags, "--in", str(trimmed), "--out", str(back)) == EXIT_USAGE
        assert code == EXIT_USAGE and not back.exists()
        assert "raw decrypt takes no --iv-hex" in capsys.readouterr().err
        return
    assert code == EXIT_OK
    assert back.read_bytes() == src.read_bytes()


def test_cbc_encrypt_draws_a_fresh_iv(tmp_path, capsys, raw_file):
    # Without --iv-hex each CBC encryption draws its IV from os.urandom,
    # so two runs on one input differ, and each decrypts to the input.
    image = tmp_path / "plain.bmp"
    assert run("make-image", "--pattern", "gradient", "--width", "8", "--height", "8",
               "--out", str(image)) == EXIT_OK
    crypt = ("--mode", "cbc", "--key-hex", KEY)
    for fmt, src in (("raw", raw_file), ("bmp-image-mode", image)):
        ivs = []
        for i in range(2):
            ct, back = tmp_path / f"{i}.enc", tmp_path / f"{i}.dec"
            assert run("encrypt", *crypt, "--format", fmt,
                       "--in", str(src), "--out", str(ct)) == EXIT_OK
            if fmt == "raw":
                ivs.append(ct.read_bytes()[:16].hex())
                iv_args = ()  # decrypt reads the IV prefix
            else:
                line = capsys.readouterr().out
                assert line.startswith("iv=") and line.count("\n") == 1
                ivs.append(line.strip().removeprefix("iv="))
                iv_args = ("--iv-hex", ivs[-1])
            assert run("decrypt", *crypt, "--format", fmt, *iv_args,
                       "--in", str(ct), "--out", str(back)) == EXIT_OK
            assert back.read_bytes() == src.read_bytes()
        assert len(ivs[0]) == 32 and ivs[0] != ivs[1], fmt
    # No flag seeds the draw: --iv-hex is the one way to fix the IV.
    assert run("encrypt", *crypt, "--seed", "3", "--in", str(raw_file),
               "--out", str(tmp_path / "seeded.enc")) == EXIT_USAGE
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("command,mode,fmt,extra", [
    ("encrypt", "ecb", "raw", ()),
    ("encrypt", "cbc", "raw", ("--iv-hex", IV)),
    ("decrypt", "ecb", "raw", ()),
    ("decrypt", "cbc", "raw", ()),
    ("encrypt", "ecb", "bmp-image-mode", ()),
    ("encrypt", "cbc", "bmp-image-mode", ("--iv-hex", IV)),
    ("decrypt", "ecb", "bmp-image-mode", ()),
    ("decrypt", "cbc", "bmp-image-mode", ("--iv-hex", IV)),
], ids=lambda v: v if isinstance(v, str) else ("iv" if v else "no-iv"))
def test_seed_refused_where_no_iv_is_drawn(tmp_path, capsys, command, mode, fmt, extra):
    # encrypt and decrypt take no --seed in any mode or format: a drawn
    # IV comes from os.urandom, and --iv-hex fixes one.
    src = tmp_path / "in.bin"
    if fmt == "raw":
        src.write_bytes(bytes(32))
    else:
        assert run("make-image", "--pattern", "gradient", "--width", "8",
                   "--height", "8", "--out", str(src)) == EXIT_OK
    out = tmp_path / "out.bin"
    assert run(command, "--mode", mode, "--format", fmt, "--key-hex", KEY, "--seed", "7",
               *extra, "--in", str(src), "--out", str(out)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 7" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["ecb", "cbc"])
def test_long_ciphertext_errors_leave_out_alone(tmp_path, capsys, mode):
    # The last block is checked before the first piece is written, so a
    # failed decryption neither creates nor truncates --out.
    plain = tmp_path / "plain.bin"
    plain.write_bytes(random.Random(81).randbytes(CHUNK + 1000))
    ct = tmp_path / "ct.bin"
    iv = ("--iv-hex", IV) if mode == "cbc" else ()
    assert run("encrypt", "--mode", mode, "--key-hex", KEY, *iv,
               "--in", str(plain), "--out", str(ct)) == EXIT_OK
    body = ct.read_bytes()
    assert len(body) > CHUNK
    flipped = bytearray(body)
    flipped[-1] ^= 1
    bad = tmp_path / "bad.bin"
    for data, code in ((bytes(flipped), EXIT_INTEGRITY), (body[:-1], EXIT_INPUT)):
        bad.write_bytes(data)
        absent, kept = tmp_path / "absent.bin", tmp_path / "kept.bin"
        kept.write_bytes(b"kept")
        for out in (absent, kept):
            assert run("decrypt", "--mode", mode, "--key-hex", KEY,
                       "--in", str(bad), "--out", str(out)) == code
        assert not absent.exists()
        assert kept.read_bytes() == b"kept"
    capsys.readouterr()
    # An --out that cannot be opened for writing is an input error.
    assert run("decrypt", "--mode", mode, "--key-hex", KEY,
               "--in", str(ct), "--out", str(tmp_path)) == EXIT_INPUT
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["ecb", "cbc"])
def test_raw_in_place_roundtrip(tmp_path, mode):
    # The input is read whole before --out is opened, so --in X --out X works.
    path = tmp_path / "file.bin"
    data = random.Random(83).randbytes(2 * CHUNK + 5)
    path.write_bytes(data)
    iv, prefix = (("--iv-hex", IV), 16) if mode == "cbc" else ((), 0)
    io = ("--in", str(path), "--out", str(path))
    assert run("encrypt", "--mode", mode, "--key-hex", KEY, *iv, *io) == EXIT_OK
    assert len(path.read_bytes()) == prefix + len(data) + 11
    assert run("decrypt", "--mode", mode, "--key-hex", KEY, *io) == EXIT_OK
    assert path.read_bytes() == data


def test_raw_file_peak_memory_is_input_plus_a_piece(tmp_path, monkeypatch):
    # Identity block functions keep the kernels' own allocations (and
    # their time under tracemalloc) out, so the peak counts the copies
    # the raw layout makes: the input read whole plus about one piece.
    identity = lambda block, ks, plan: block  # noqa: E731
    monkeypatch.setattr(modes, "encrypt_block_variant", identity)
    monkeypatch.setattr(modes, "decrypt_block_variant", identity)
    size = 1 << 20
    data = random.Random(84).randbytes(size)
    plain, ct, back = tmp_path / "plain.bin", tmp_path / "ct.bin", tmp_path / "back.bin"
    plain.write_bytes(data)

    def crypt(command, mode, src, dst):
        iv = ("--iv-hex", IV) if mode == "cbc" and command == "encrypt" else ()
        return run(command, "--mode", mode, "--key-hex", KEY, "--variant", "optf", *iv,
                   "--in", str(src), "--out", str(dst))

    assert crypt("encrypt", "ecb", plain, ct) == EXIT_OK  # warm-up
    for mode in ("ecb", "cbc"):
        for command, src, dst in (("encrypt", plain, ct), ("decrypt", ct, back)):
            tracemalloc.start()
            try:
                code = crypt(command, mode, src, dst)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == EXIT_OK
            assert peak <= 1.25 * size, (mode, command, peak / size)
        assert back.read_bytes() == data


def test_wrong_key_is_integrity_error(tmp_path, raw_file):
    ct = tmp_path / "out.enc"
    pt = tmp_path / "out.dec"
    run("encrypt", "--mode", "cbc", "--key-hex", KEY,
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


def test_empty_key_hex_is_a_key(tmp_path, raw_file, capsys):
    # An empty --key-hex is a 0-byte key, not a missing one.
    key_file = tmp_path / "key.hex"
    key_file.write_text(KEY + "\n")
    out = tmp_path / "out.enc"
    io = ("--in", str(raw_file), "--out", str(out))
    assert run("encrypt", "--mode", "ecb", "--key-hex", "", *io) == EXIT_INPUT
    assert "key must be 16, 24, or 32 bytes, got 0" in capsys.readouterr().err
    assert run("encrypt", "--mode", "ecb", "--key-hex", "", "--key-file", str(key_file),
               *io) == EXIT_USAGE
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


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
    assert run("analyze", "--in", str(plain), str(enc), "--report", "csv") == EXIT_OK
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
               "--key-hex", KEY,
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


def test_image_mode_cbc_decrypt_without_iv_is_usage_error_before_any_read(tmp_path, capsys):
    # Checked with the other flag rules, so a missing --in does not turn
    # it into an input error.
    out = tmp_path / "out.bmp"
    assert run("decrypt", "--mode", "cbc", "--format", "bmp-image-mode", "--key-hex", KEY,
               "--in", str(tmp_path / "absent.bmp"), "--out", str(out)) == EXIT_USAGE
    assert "--iv-hex" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "encrypt --mode ecb --key-hex zz --iv-hex 000102030405060708090a0b0c0d0e0f",
    "decrypt --mode cbc --format bmp-image-mode --key-hex zz",
    "decrypt --mode cbc --key-hex zz --iv-hex 000102030405060708090a0b0c0d0e0f",
], ids=["ecb-iv", "image-cbc-decrypt-no-iv", "raw-decrypt-iv"])
def test_flag_rules_come_before_the_key(tmp_path, capsys, raw_file, argv):
    # A usage error is not hidden behind a malformed or short key.
    out = tmp_path / "out.bin"
    assert run(*shlex.split(argv), "--in", str(raw_file), "--out", str(out)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


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


def test_analyze_csv_quotes_image_paths(tmp_path, capsys):
    # A path holding a comma, a quote and a line break stays one field.
    plain = tmp_path / 'a,"b\nc.bmp'
    hist = tmp_path / "hist.csv"
    assert run("make-image", "--pattern", "gradient", "--width", "16", "--height", "16",
               "--out", str(plain)) == EXIT_OK
    assert run("analyze", "--in", str(plain), str(plain), "--report", "csv",
               "--hist-out", str(hist)) == EXIT_OK
    for text in (capsys.readouterr().out, hist.read_text()):
        rows = list(csv.reader(io.StringIO(text)))
        assert {len(row) for row in rows} == {len(rows[0])}
        assert [row[0] for row in rows[1:]] == [str(plain)] * (len(rows) - 1)


def test_analyze_rejects_non_bmp(tmp_path, raw_file):
    assert run("analyze", "--in", str(raw_file)) == EXIT_INPUT


def test_analyze_needs_a_whole_block_of_pixels(tmp_path, capsys):
    # A 1x1 bitmap is valid and image mode encrypts it (its 4 pixel
    # bytes are all tail), but analyze needs one whole 16-byte block.
    plain = tmp_path / "plain.bmp"
    enc = tmp_path / "enc.bmp"
    assert run("make-image", "--pattern", "constant-color", "--width", "1",
               "--height", "1", "--out", str(plain)) == EXIT_OK
    assert run("encrypt", "--mode", "ecb", "--format", "bmp-image-mode",
               "--key-hex", KEY, "--in", str(plain), "--out", str(enc)) == EXIT_OK
    capsys.readouterr()
    for args in (("--in", str(plain)), ("--in", str(plain), str(enc))):
        assert run("analyze", *args) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: need at least one 16-byte block, got 4 bytes\n")


def test_cost_prints_reference_values(capsys):
    assert run("cost", "--nb", "4", "--nr", "10",
               "--ta", "1", "--to", "1", "--ts", "1") == EXIT_OK
    assert capsys.readouterr().out == "nb,nr,encrypt_cycles,decrypt_cycles\n4,10,6168,11064\n"
    # 4 and 10 are the defaults.
    assert run("cost") == EXIT_OK
    assert capsys.readouterr().out == "nb,nr,encrypt_cycles,decrypt_cycles\n4,10,6168,11064\n"


def test_cost_grid_csv(capsys):
    # One row per (N_b, N_r) pair, N_b the outer loop.
    assert run("cost", "--nb", "4,6,8", "--nr", "10,12,14") == EXIT_OK
    assert capsys.readouterr().out == (
        "nb,nr,encrypt_cycles,decrypt_cycles\n"
        "4,10,6168,11064\n"
        "4,12,7512,13496\n"
        "4,14,8856,15928\n"
        "6,10,8766,16110\n"
        "6,12,10674,19650\n"
        "6,14,12582,23190\n"
        "8,10,11364,21156\n"
        "8,12,13836,25804\n"
        "8,14,16308,30452\n"
    )


def test_cost_rejects_bad_params(capsys):
    assert run("cost", "--nb", "0") == EXIT_USAGE
    for value in ("-1", "nan", "inf"):
        assert run("cost", "--ta", value) == EXIT_USAGE
        assert run("cost", "--ts", value, "--nb", "4,6,8", "--nr", "10,12,14") == EXIT_USAGE
    assert capsys.readouterr().out == ""
    # Finite unit costs whose cycle counts overflow a float.
    for argv in (("--ta", "1e308", "--to", "1e308", "--ts", "1e308"),
                 ("--nb", "4,6,8", "--nr", "10,12,14", "--ta", "1e306", "--ts", "1e306")):
        assert run("cost", *argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cycle count ")
        assert "not finite" in err and err.count("\n") == 1
    # A round count past the largest float, at any unit cost.
    for ta in ("1", "0"):
        assert run("cost", "--nr", "1" + "0" * 400, "--ta", ta) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: int too large to convert to float\n")


@pytest.mark.parametrize("argv,flag", [
    (("cost", "--grid"), "--grid"),
    (("analyze", "--in", "a.bmp", "--compare", "b.bmp"), "--compare"),
])
def test_cost_and_analyze_removed_flags_exit_2(capsys, argv, flag):
    # cost --nb/--nr take lists, and analyze --in takes every image.
    assert run(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_bench_cli_small_run(tmp_path, capsys):
    out_csv = tmp_path / "bench.csv"
    assert run("bench", "--sizes", "512", "--key-sizes", "128",
               "--variants", "base,optf", "--modes", "ecb", "--reps", "3",
               "--out", str(out_csv)) == EXIT_OK
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("label,")
    assert len(lines) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "optf" in captured.err and "vs base" in captured.err


@pytest.mark.parametrize("flag,value", [
    ("--modes", "ctr"),
    ("--ops", "frobnicate"),
    ("--key-sizes", "512"),
    ("--variants", "turbo"),
    ("--rounds", "0"),
    ("--rounds", "0,2"),
])
def test_bench_cli_rejects_unknown_names(capsys, flag, value):
    assert run("bench", "--sizes", "512", flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert value in captured.err


def test_bench_cli_matrix_defaults(tmp_path):
    out_csv = tmp_path / "bench.csv"
    assert run("bench", "--sizes", "512", "--reps", "3",
               "--out", str(out_csv)) == EXIT_OK
    rows = list(csv.DictReader(out_csv.open()))
    cells = {(r["key_bits"], r["n_r"], r["variant"], r["mode"], r["op"]) for r in rows}
    assert len(rows) == len(cells) == 3 * 4 * 2
    assert {c[:2] for c in cells} == {("128", "10"), ("192", "12"), ("256", "14")}
    assert {c[2] for c in cells} == {"base", "opt1", "opt2", "optf"}
    assert {c[3:] for c in cells} == {("ecb", "encrypt"), ("cbc", "encrypt")}


# --micro bare (its default count) and with a count, before a matrix option.
@pytest.mark.parametrize("micro", [("--micro",), ("--micro", "300")], ids=["micro", "micro-300"])
@pytest.mark.parametrize("flag,value", [
    ("--key-sizes", "256"),
    ("--variants", "optf"),
    ("--modes", "cbc"),
    ("--ops", "decrypt"),
    ("--rounds", "4"),
])
def test_bench_cli_matrix_options_refused_outside_matrix(capsys, micro, flag, value):
    assert run("bench", "--reps", "3", *micro, flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--micro" in captured.err and flag in captured.err


@pytest.mark.parametrize("flag,value", [
    ("--sizes", "512"),
    ("--reps", "2"),
], ids=["micro-sizes", "micro-reps"])
def test_bench_cli_refuses_options_its_run_ignores(capsys, flag, value):
    assert run("bench", "--micro", "300", "--reps", "3", flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


@pytest.mark.parametrize("flag,value", [
    ("--sweep-rounds", "1,2"),
    ("--micro-iters", "300"),
    ("--warmup", "0"),
    ("--report", "text"),
])
def test_bench_cli_removed_flags_exit_2(capsys, flag, value):
    # The round sweep is --rounds, --micro takes its own count, every
    # cell gets one untimed pass, and the report is one CSV.
    assert run("bench", flag, value) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_bench_cli_refuses_repeated_values(tmp_path, capsys):
    # The two sizes would be two payloads timed under one label.
    out_csv = tmp_path / "bench.csv"
    assert run("bench", "--sizes", "64,64", "--rounds", "2,2", "--modes", "ecb,ecb",
               "--variants", "optf", "--reps", "3", "--out", str(out_csv)) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: sizes lists 64 more than once\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("argv,flags", [
    (("--rounds", "1,2", "--sizes", "64", "--reps", "0"), ("--reps",)),
    (("--rounds", "1,2", "--sizes", "64", "--reps", "2"), ("--reps",)),
    (("--micro", "2", "--reps", "3"), ("--micro", "--reps")),
    (("--sizes", "64", "--reps", "2"), ("--reps",)),
    (("--micro", "--reps", "1"), ("--reps",)),
], ids=["sweep-reps-0", "sweep-reps-2", "micro-iters-below-reps", "matrix-reps-2",
        "micro-reps-1"])
def test_bench_cli_refuses_bad_counts(capsys, argv, flags):
    assert run("bench", *argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    for flag in flags:
        assert flag in captured.err


def test_bench_cli_sweep(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert run("bench", "--sizes", "512", "--key-sizes", "128", "--variants", "base",
               "--modes", "ecb", "--ops", "encrypt,decrypt", "--rounds", "1,2",
               "--reps", "3", "--out", str(out_csv)) == EXIT_OK
    assert len(out_csv.read_text().strip().splitlines()) == 5
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" time ")[0] for line in lines] == [
        f"ecb/{op} 528B key128 base: rounds 1->2" for op in ("decrypt", "encrypt")
    ]


def test_bench_cli_prints_gains_and_growth(tmp_path, capsys):
    # A matrix over several variants and round counts prints both summaries.
    assert run("bench", "--sizes", "512", "--key-sizes", "128", "--modes", "ecb",
               "--variants", "base,optf", "--rounds", "1,2", "--reps", "3",
               "--out", str(tmp_path / "bench.csv")) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert [re.sub(r" [+-][\d.]+%", " N%", line) for line in lines] == [
        "ecb/encrypt 528B key128 1r: optf N% vs base (reported: 20%)",
        "ecb/encrypt 528B key128 2r: optf N% vs base (reported: 20%)",
        "ecb/encrypt 528B key128 base: rounds 1->2 time N% (reported band: 14-19%)",
        "ecb/encrypt 528B key128 optf: rounds 1->2 time N% (reported band: 14-19%)",
    ]


def test_bench_cli_micro(tmp_path):
    out_csv = tmp_path / "micro.csv"
    assert run("bench", "--micro", "300", "--reps", "3",
               "--out", str(out_csv)) == EXIT_OK
    assert len(out_csv.read_text().strip().splitlines()) == 9


def test_bench_cli_without_out_keeps_stdout_a_report(capsys):
    # `aeslab bench > x.csv` gives a CSV; the summaries go to stderr.
    assert run("bench", "--micro", "300", "--reps", "3") == EXIT_OK
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0][0] == "label" and len(rows) == 9
    assert {len(row) for row in rows} == {len(rows[0])}
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "add_round_key", "mix_columns", "shift_rows", "sub_bytes"]
    assert all(" vs base (reported: " in line for line in lines)


@pytest.mark.parametrize("argv", [
    ("make-image", "--pattern", "gradient", "--width", "8", "--height", "8"),
    ("analyze", "--in", "{image}"),
    ("bench", "--micro", "300", "--reps", "3"),
    ("cost",),
    ("cost", "--nb", "4,6,8", "--nr", "10,12,14"),
], ids=["make-image", "analyze", "bench", "cost", "cost-grid"])
def test_unwritable_out_is_input_error(tmp_path, capsys, argv):
    image = tmp_path / "plain.bmp"
    assert run("make-image", "--pattern", "gradient", "--width", "8", "--height", "8",
               "--out", str(image)) == EXIT_OK
    out = tmp_path / "no" / "such" / "dir" / "x"
    argv = [arg.format(image=image) for arg in argv]
    assert run(*argv, "--out", str(out)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command,fmt", [
    ("encrypt", "raw"),
    ("encrypt", "bmp-image-mode"),
    ("decrypt", "bmp-image-mode"),
])
def test_short_iv_is_input_error_before_any_write(tmp_path, capsys, command, fmt):
    src = tmp_path / "plain.bmp"
    assert run("make-image", "--pattern", "gradient", "--width", "8", "--height", "8",
               "--out", str(src)) == EXIT_OK
    out = tmp_path / "out"
    assert run(command, "--mode", "cbc", "--key-hex", KEY, "--iv-hex", "aa" * 15,
               "--format", fmt, "--in", str(src), "--out", str(out)) == EXIT_INPUT
    assert capsys.readouterr().err == "error: IV must be 16 bytes, got 15\n"
    assert not out.exists()


def test_option_counts():
    # Each subcommand's options, -h aside: a new knob is a visible edit here.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(not isinstance(a, argparse._HelpAction) for a in p._actions)
              for name, p in sub.choices.items()}
    assert counts == {"encrypt": 10, "decrypt": 10, "make-image": 4, "analyze": 4,
                      "bench": 10, "cost": 6}


def test_readme_commands_parse():
    # Every aeslab command in the README's sh blocks is one the CLI accepts.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["aeslab"]:
                commands.append(argv[1:])
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: aeslab {shlex.join(argv)}")


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
