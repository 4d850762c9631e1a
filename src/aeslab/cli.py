"""Command-line interface: encrypt, decrypt, make-image, analyze, bench,
and cost subcommands.

Exit codes: 0 success, 2 usage error (including a flag value out of
range), 3 input error (missing or malformed files, keys or IVs), 4
integrity error (padding check failed on decryption).  Every
subcommand is scriptable: no prompts, and all randomness is seedable
via --seed.
"""

import argparse
import random
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


class InputError(Exception):
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
        p.add_argument("--iv-hex", help="16-byte IV as hex (CBC only)")
        p.add_argument("--format", default="raw", choices=("raw", "bmp-image-mode"),
                       help="raw: PKCS#7-padded whole file (CBC output is IV||ciphertext); "
                            "bmp-image-mode: keep the BMP header, encrypt the pixel array, "
                            "preserve file size")
        p.add_argument("--seed", type=int, default=None,
                       help="seed the IV generator (testing only)")

    p = sub.add_parser("make-image", help="generate a synthetic 24-bit BMP test image")
    p.add_argument("--pattern", required=True,
                   choices=bmp.TEST_PATTERNS + ("single-object",))
    p.add_argument("--width", type=int, default=200)
    p.add_argument("--height", type=int, default=200)
    p.add_argument("--out", dest="out_path", required=True)

    p = sub.add_parser("analyze", help="histogram/entropy/leakage report for BMP images")
    p.add_argument("--in", dest="in_path", required=True, help="image to analyze")
    p.add_argument("--compare", help="second image (e.g. its encrypted counterpart)")
    p.add_argument("--report", default="text", choices=("csv", "text"))
    p.add_argument("--out", dest="out_path", help="write report here (default stdout)")
    p.add_argument("--hist-out", help="also write per-bin histogram CSV here")

    p = sub.add_parser("bench", help="timing experiments")
    p.add_argument("--sizes", default=None,
                   help="comma-separated payload sizes in bytes "
                        "(default: the three bitmap workload sizes; 32768 for --sweep-rounds)")
    p.add_argument("--key-sizes",
                   help=f"matrix key sizes in bits (default: {','.join(map(str, KEY_BITS))})")
    p.add_argument("--variants", help=f"matrix variants (default: {','.join(VARIANT_IDS)})")
    p.add_argument("--modes", help=f"matrix modes (default: {','.join(MODES)})")
    p.add_argument("--ops", help="matrix ops (default: encrypt)")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--warmup", type=int, default=None,
                   help="untimed passes per cell before timing, the output check "
                        "being the first (default: 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", default=None,
                   help="comma-separated matrix round counts "
                        "(default: standard for each key size)")
    p.add_argument("--sweep-rounds", default=None,
                   help="run a round-count sweep instead of the matrix, e.g. 2,4,6,8,10")
    p.add_argument("--micro", action="store_true",
                   help="run per-transform microbenchmarks instead of the matrix")
    p.add_argument("--micro-iters", type=int, default=None,
                   help="transform applications per --micro cell (default: 1000000)")
    p.add_argument("--report", default="csv", choices=("csv", "text"))
    p.add_argument("--out", dest="out_path", help="write report here (default stdout)")

    p = sub.add_parser("cost", help="analytic operation-cost model")
    p.add_argument("--nb", type=int, default=4)
    p.add_argument("--nr", type=int, default=10)
    p.add_argument("--ta", type=float, default=1.0)
    p.add_argument("--to", type=float, default=1.0)
    p.add_argument("--ts", type=float, default=1.0)
    p.add_argument("--grid", action="store_true",
                   help="emit a CSV grid over (n_b, n_r, key size)")
    p.add_argument("--out", dest="out_path", help="write output here (default stdout)")

    return parser


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from e


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from e


def _parse_hex(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text.strip())
    except ValueError as e:
        raise InputError(f"malformed hex for {what}: {e}") from e


def _load_key(args) -> bytes:
    if args.key_hex and args.key_file:
        raise UsageError("give --key-hex or --key-file, not both")
    if args.key_hex:
        key = _parse_hex(args.key_hex, "--key-hex")
    elif args.key_file:
        key = _parse_hex(_read_file(args.key_file).decode("ascii", "replace"), "key file")
    else:
        raise UsageError("a key is required (--key-hex or --key-file)")
    if len(key) not in ROUNDS_BY_KEY_BYTES:
        raise InputError(f"key must be 16, 24, or 32 bytes, got {len(key)}")
    if args.key_size is not None and len(key) * 8 != args.key_size:
        raise UsageError(
            f"--key-size {args.key_size} does not match the {len(key) * 8}-bit key"
        )
    return key


def _parse_iv(args) -> bytes | None:
    if args.iv_hex is None:
        return None
    iv = _parse_hex(args.iv_hex, "--iv-hex")
    if len(iv) != 16:
        raise InputError(f"IV must be 16 bytes, got {len(iv)}")
    return iv


def _parse_image(label: str, data: bytes):
    try:
        return bmp.parse_bmp(data)
    except bmp.BmpError as e:
        raise InputError(f"{label}: {e}") from e


def _cmd_crypt(args) -> int:
    if args.rounds is not None and args.rounds < 1:
        raise UsageError(f"--rounds must be >= 1, got {args.rounds}")
    key = _load_key(args)
    ks = key_expansion(key, args.rounds)
    plan = make_plan(args.variant, ks.n_r)
    iv = _parse_iv(args)
    if args.mode == "ecb" and iv is not None:
        raise UsageError("--iv-hex is forbidden for ECB")
    rng = random.Random(args.seed) if args.seed is not None else None
    data = _read_file(args.in_path)

    if args.format == "raw":
        if args.command == "encrypt":
            out = modes.encrypt_blob(data, ks, args.mode, plan, iv, rng)
        else:
            try:
                out = modes.decrypt_blob(data, ks, args.mode, plan, iv)
            except PaddingError:
                raise  # handled in dispatch with the integrity exit code
            except ValueError as e:
                raise InputError(str(e)) from e
    else:
        img = _parse_image(args.in_path, data)
        if args.command == "encrypt":
            if args.mode == "cbc" and iv is None:
                iv = modes.random_iv(rng)
                print(f"iv={iv.hex()}")
            pixels = modes.encrypt_with_residual(img.pixels, ks, args.mode, plan, iv)
        else:
            if args.mode == "cbc" and iv is None:
                raise UsageError("bmp-image-mode CBC decrypt needs --iv-hex "
                                 "(the image file carries no IV)")
            pixels = modes.decrypt_with_residual(img.pixels, ks, args.mode, plan, iv)
        img.pixels = pixels
        out = bmp.serialize_bmp(img)

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
    _write_file(args.out_path, bmp.serialize_bmp(img))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from . import analysis

    inputs = [(args.in_path, _read_file(args.in_path))]
    if args.compare:
        inputs.append((args.compare, _read_file(args.compare)))

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


# The options each kind of bench run takes besides --reps, --seed,
# --report and --out, as argparse dest -> keyword of the BenchConfig or
# microbench_all call that runs it.  A run given an option of another
# kind refuses it.
_RUN_OPTIONS = {
    "--micro": {"micro_iters": "iterations"},
    "--sweep-rounds": {"sizes": "sizes", "warmup": "warmup", "sweep_rounds": "rounds"},
    "the matrix run": {name: name for name in (
        "sizes", "warmup", "key_sizes", "variants", "modes", "ops", "rounds")},
}
_BENCH_OPTIONS = dict.fromkeys(name for takes in _RUN_OPTIONS.values() for name in takes)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _cmd_bench(args) -> int:
    from . import bench

    if args.micro:
        run = "--micro"
    elif args.sweep_rounds is not None:
        run = "--sweep-rounds"
    else:
        run = "the matrix run"
    takes = _RUN_OPTIONS[run]
    given = {name: getattr(args, name) for name in _BENCH_OPTIONS
             if getattr(args, name) is not None}
    refused = [_flag(name) for name in given if name not in takes]
    if refused:
        raise UsageError(f"{run} takes no {', '.join(refused)}")
    # BenchConfig and microbench_transform check these too, but name
    # their parameters, not the flags.
    if args.reps < 3:
        raise UsageError(f"--reps must be >= 3, got {args.reps}")
    if args.warmup is not None and args.warmup < 0:
        raise UsageError(f"--warmup must be >= 0, got {args.warmup}")
    if args.micro_iters is not None and args.micro_iters < args.reps:
        raise UsageError(f"--micro-iters must be >= --reps, got {args.micro_iters} < {args.reps}")
    # Options left out keep the defaults of the sweep preset or of the
    # call that runs them.
    kwargs = {}
    for name, value in given.items():
        if name in ("sizes", "key_sizes", "sweep_rounds", "rounds"):
            value = _split_ints(value, _flag(name))
        elif name in ("variants", "modes", "ops"):
            value = tuple(value.split(","))
        kwargs[takes[name]] = value
    common = {"repetitions": args.reps, "seed": args.seed}
    if run == "--micro":
        try:
            results = bench.microbench_all(**common, **kwargs)
        except ValueError as e:
            raise UsageError(str(e)) from e
        summary = bench.microbench_gain_lines(results)
    else:
        preset = bench.SWEEP if run == "--sweep-rounds" else {}
        try:
            cfg = bench.BenchConfig(**{**preset, **common, **kwargs})
        except ValueError as e:
            raise UsageError(str(e)) from e
        results = bench.run_matrix(cfg)
        summary = (bench.sweep_growth_lines if preset else bench.variant_gain_lines)(results)

    report = bench.emit_report(results, args.report)
    _write_text(args.out_path, report)
    for line in summary:
        print(line)
    return EXIT_OK


def _cmd_cost(args) -> int:
    from . import costmodel

    try:
        if args.grid:
            rows = costmodel.cost_grid_rows(t_a=args.ta, t_o=args.to, t_s=args.ts)
            lines = ["nb,nr,key_bits,encrypt_cycles,decrypt_cycles"]
            lines += [f"{nb},{nr},{kb},{e:g},{d:g}" for nb, nr, kb, e, d in rows]
            _write_text(args.out_path, "\n".join(lines) + "\n")
        else:
            p = costmodel.CostParams(args.nb, args.nr, args.ta, args.to, args.ts)
            text = (f"encrypt: {costmodel.encrypt_cycles(p):g}\n"
                    f"decrypt: {costmodel.decrypt_cycles(p):g}\n")
            _write_text(args.out_path, text)
    except ValueError as e:
        raise UsageError(str(e)) from e
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
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(dispatch())
