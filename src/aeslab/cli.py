"""Command-line interface: encrypt, decrypt, make-image, analyze, bench,
and cost subcommands.

Exit codes: 0 success, 2 usage error (including a flag value out of
range), 3 input error (missing or malformed files, keys or IVs), 4
integrity error (padding check failed on decryption).  Every
subcommand is scriptable: no prompts.  bench --seed seeds its payloads
and keys.  --iv-hex fixes the CBC IV that encrypt otherwise draws from
os.urandom; raw decrypt refuses it (the IV is the file's prefix) and
bmp-image-mode CBC decrypt needs it, both checked before the key.

Raw-format encrypt and decrypt write their output piece by piece, and
open it only once the first piece exists: every input and padding
error is raised before then.

bench has two kinds of run: the timing matrix, which is a round sweep
when --rounds lists several counts, and --micro [ITERS], the
per-transform microbenchmarks, which refuses the options that shape
the matrix.  cost has one kind of run: --nb and --nr take
comma-separated lists, and it prints one CSV row per (N_b, N_r) pair.
analyze reports on every image given to --in, in order.
"""

import argparse
import itertools
import sys

from . import bmp, modes
from .core import KEY_BITS, ROUNDS_BY_KEY_BYTES, key_expansion
from .modes import MODES, PaddingError
from .variants import VARIANT_IDS, make_plan

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTEGRITY = 4


class UsageError(Exception):
    pass


def _add_key_args(p):
    p.add_argument("--key-hex", help="key as hex text")
    p.add_argument("--key-file", help="file holding the key as hex text")
    p.add_argument("--key-size", type=int, choices=KEY_BITS,
                   help="expected key size in bits (validated against the key)")
    p.add_argument("--rounds", type=int, default=None,
                   help="nonstandard round count (default: standard for the key size)")
    p.add_argument("--variant", default="base", choices=VARIANT_IDS)


def _add_io_args(p):
    p.add_argument("--in", dest="in_path", required=True, help="input file")
    p.add_argument("--out", dest="out_path", required=True, help="output file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeslab",
        description="Rijndael/AES cipher lab: modes, optimization variants, "
                    "benchmarks, cost model, and image-encryption analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("encrypt", "decrypt"):
        p = sub.add_parser(name, help=f"{name} a file")
        _add_key_args(p)
        _add_io_args(p)
        p.add_argument("--mode", required=True, choices=MODES)
        p.add_argument("--iv-hex",
                       help="16-byte IV as hex (CBC only); raw decrypt refuses it and reads "
                            "the file's IV prefix, bmp-image-mode decrypt needs it")
        p.add_argument("--format", default="raw", choices=("raw", "bmp-image-mode"),
                       help="raw: PKCS#7-padded whole file (CBC output is IV||ciphertext); "
                            "bmp-image-mode: keep the BMP header, encrypt the pixel array, "
                            "preserve file size")

    p = sub.add_parser("make-image", help="generate a synthetic 24-bit BMP test image")
    p.add_argument("--pattern", required=True, choices=bmp.TEST_PATTERNS)
    p.add_argument("--width", type=int, default=200)
    p.add_argument("--height", type=int, default=200)
    p.add_argument("--out", dest="out_path", required=True)

    p = sub.add_parser("analyze", help="histogram/entropy/leakage report for BMP images")
    p.add_argument("--in", dest="in_paths", nargs="+", required=True,
                   help="images to analyze, e.g. a bitmap and its encryption")
    p.add_argument("--report", default="text", choices=("csv", "text"))
    p.add_argument("--out", dest="out_path", help="write report here (default stdout)")
    p.add_argument("--hist-out", help="also write per-bin histogram CSV here")

    p = sub.add_parser("bench", help="timing experiments")
    p.add_argument("--sizes", default=None,
                   help="comma-separated payload sizes in bytes "
                        "(default: the three bitmap workload sizes)")
    p.add_argument("--key-sizes",
                   help=f"matrix key sizes in bits (default: {','.join(map(str, KEY_BITS))})")
    p.add_argument("--variants", help=f"matrix variants (default: {','.join(VARIANT_IDS)})")
    p.add_argument("--modes", help=f"matrix modes (default: {','.join(MODES)})")
    p.add_argument("--ops", help="matrix ops (default: encrypt)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", default=None,
                   help="comma-separated matrix round counts, e.g. 2,4,6,8,10 for a "
                        "round sweep (default: standard for each key size)")
    p.add_argument("--micro", nargs="?", type=int, const=1_000_000, default=None,
                   metavar="ITERS",
                   help="run per-transform microbenchmarks instead of the matrix, "
                        "ITERS transform applications per cell (default: 1000000)")
    p.add_argument("--out", dest="out_path", help="write the CSV here (default stdout)")

    p = sub.add_parser("cost", help="analytic operation-cost model")
    p.add_argument("--nb", default="4", help="comma-separated block lengths N_b (default: 4)")
    p.add_argument("--nr", default="10", help="comma-separated round counts N_r (default: 10)")
    p.add_argument("--ta", type=float, default=1.0)
    p.add_argument("--to", type=float, default=1.0)
    p.add_argument("--ts", type=float, default=1.0)
    p.add_argument("--out", dest="out_path", help="write output here (default stdout)")

    return parser


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise ValueError(f"cannot read {path}: {e}") from e


def _write_file(path: str, pieces) -> None:
    """Write each bytes piece in turn, as the iterable produces it."""
    try:
        with open(path, "wb") as fh:
            fh.writelines(pieces)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from e


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e}") from e


def _parse_hex(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text.strip())
    except ValueError as e:
        raise ValueError(f"malformed hex for {what}: {e}") from e


def _load_key(args) -> bytes:
    if args.key_hex is not None and args.key_file is not None:
        raise UsageError("give --key-hex or --key-file, not both")
    if args.key_hex is not None:
        key = _parse_hex(args.key_hex, "--key-hex")
    elif args.key_file is not None:
        key = _parse_hex(_read_file(args.key_file).decode("ascii", "replace"), "key file")
    else:
        raise UsageError("a key is required (--key-hex or --key-file)")
    if len(key) not in ROUNDS_BY_KEY_BYTES:
        raise ValueError(f"key must be 16, 24, or 32 bytes, got {len(key)}")
    if args.key_size is not None and len(key) * 8 != args.key_size:
        raise UsageError(
            f"--key-size {args.key_size} does not match the {len(key) * 8}-bit key"
        )
    return key


def _parse_image(label: str, data: bytes):
    try:
        return bmp.parse_bmp(data)
    except bmp.BmpError as e:
        raise ValueError(f"{label}: {e}") from e


def _cmd_crypt(args) -> int:
    if args.rounds is not None and args.rounds < 1:
        raise UsageError(f"--rounds must be >= 1, got {args.rounds}")
    # The flag-only rules come before the key is read, so a usage error
    # is not hidden behind a bad key.
    if args.mode == "ecb" and args.iv_hex is not None:
        raise UsageError("--iv-hex is forbidden for ECB")
    if args.format == "raw" and args.command == "decrypt" and args.iv_hex is not None:
        raise UsageError("raw decrypt takes no --iv-hex: the IV is the file's prefix")
    if (args.format != "raw" and args.command == "decrypt" and args.mode == "cbc"
            and args.iv_hex is None):
        raise UsageError("bmp-image-mode CBC decrypt needs --iv-hex "
                         "(the image file carries no IV)")
    key = _load_key(args)
    ks = key_expansion(key, args.rounds)
    plan = make_plan(args.variant, ks.n_r)
    # modes checks the IV length before any output is written.
    iv = None if args.iv_hex is None else _parse_hex(args.iv_hex, "--iv-hex")
    draws_iv = args.command == "encrypt" and args.mode == "cbc" and iv is None
    if draws_iv:
        iv = modes.random_iv()
    data = _read_file(args.in_path)

    if args.format == "raw":
        if args.command == "encrypt":
            pieces = modes.encrypt_pieces(data, ks, args.mode, plan, iv)
        else:
            pieces = modes.decrypt_pieces(data, ks, args.mode, plan)
        # Every input or integrity error raises before the first piece,
        # so a failed run neither creates nor truncates --out.
        first = next(pieces)
        out = itertools.chain((first,), pieces)
    else:
        img = _parse_image(args.in_path, data)
        if args.command == "encrypt":
            if draws_iv:
                print(f"iv={iv.hex()}")
            pixels = modes.encrypt_with_residual(img.pixels, ks, args.mode, plan, iv)
        else:
            pixels = modes.decrypt_with_residual(img.pixels, ks, args.mode, plan, iv)
        img.pixels = pixels
        out = (bmp.serialize_bmp(img),)

    _write_file(args.out_path, out)
    return EXIT_OK


def _cmd_make_image(args) -> int:
    for flag, value in (("--width", args.width), ("--height", args.height)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    try:
        img = bmp.make_test_image(args.pattern, args.width, args.height)
    except ValueError as e:
        raise UsageError(str(e)) from e
    _write_file(args.out_path, (bmp.serialize_bmp(img),))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import analysis

    inputs = [(path, _read_file(path)) for path in args.in_paths]

    images = [(label, _parse_image(label, data)) for label, data in inputs]
    reports = [(label, analysis.histogram(img), analysis.duplicate_block_ratio(img.pixels))
               for label, img in images]

    if args.report == "csv":
        lines = [analysis.METRICS_CSV_HEADER]
        lines += [analysis.metrics_csv_line(label, h, leak) for label, h, leak in reports]
    else:
        lines = []
        for label, h, leak in reports:
            lines += analysis.metrics_text_lines(label, h, leak)
    _write_text(args.out_path, "\n".join(lines) + "\n")

    if args.hist_out:
        hist_lines = []
        for i, (label, h, _leak) in enumerate(reports):
            block = analysis.histogram_csv_lines(h, label)
            hist_lines += block if i == 0 else block[1:]  # one shared header
        _write_text(args.hist_out, "\n".join(hist_lines) + "\n")
    return EXIT_OK


def _split_ints(text: str, what: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part)
    except ValueError as e:
        raise UsageError(f"bad {what}: {e}") from e
    if not values or min(values) < 1:
        raise UsageError(f"bad {what}: expected positive integers, got {text!r}")
    return values


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_bench(args) -> int:
    from . import bench

    # The options that shape the matrix; --micro refuses them.
    names = ("sizes", "key_sizes", "variants", "modes", "ops", "rounds")
    matrix = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if args.micro is not None and matrix:
        raise UsageError(f"--micro takes no {', '.join(map(_flag, matrix))}")
    # BenchConfig and microbench_all check these too, but name their
    # parameters, not the flags.
    if args.reps < 3:
        raise UsageError(f"--reps must be >= 3, got {args.reps}")
    if args.micro is not None and args.micro < args.reps:
        raise UsageError(f"--micro must be >= --reps, got {args.micro} < {args.reps}")
    common = {"repetitions": args.reps, "seed": args.seed}
    if args.micro is not None:
        results = bench.microbench_all(args.micro, **common)
        summary = bench.microbench_gain_lines(results)
    else:
        # Options left out keep BenchConfig's defaults.
        for name, value in matrix.items():
            if name in ("sizes", "key_sizes", "rounds"):
                matrix[name] = _split_ints(value, _flag(name))
            else:
                matrix[name] = tuple(value.split(","))
        try:
            cfg = bench.BenchConfig(**common, **matrix)
        except ValueError as e:
            raise UsageError(str(e)) from e
        results = bench.run_matrix(cfg)
        summary = bench.variant_gain_lines(results) + bench.sweep_growth_lines(results)

    _write_text(args.out_path, bench.emit_report(results))
    # Without --out, stdout holds the CSV alone.
    for line in summary:
        print(line, file=sys.stderr)
    return EXIT_OK


def _cmd_cost(args) -> int:
    from . import costmodel

    nbs, nrs = _split_ints(args.nb, "--nb"), _split_ints(args.nr, "--nr")
    lines = ["nb,nr,encrypt_cycles,decrypt_cycles"]
    try:
        for nb in nbs:
            for nr in nrs:
                p = costmodel.CostParams(nb, nr, args.ta, args.to, args.ts)
                lines.append(f"{nb},{nr},{costmodel.encrypt_cycles(p):g},"
                             f"{costmodel.decrypt_cycles(p):g}")
    except (ValueError, OverflowError) as e:  # OverflowError: an int past any float
        raise UsageError(str(e)) from e
    _write_text(args.out_path, "\n".join(lines) + "\n")
    return EXIT_OK


_COMMANDS = {
    "encrypt": _cmd_crypt,
    "decrypt": _cmd_crypt,
    "make-image": _cmd_make_image,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
    "cost": _cmd_cost,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse handles --help and usage errors
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PaddingError as e:
        print(f"integrity error: {e} (wrong key, IV, or corrupted data?)", file=sys.stderr)
        return EXIT_INTEGRITY
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(dispatch())
