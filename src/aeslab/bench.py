"""Benchmark harness.

Reproduces the encryption-time-vs-payload-size experiment across key
sizes, optimization variants, and modes, and per-transform
microbenchmarks.  The round-count growth experiment is the matrix over
several round counts, summarized by sweep_growth_lines.  Every
measurement is process CPU time (time.process_time), not wall-clock
time: on a shared machine the wall clock also counts time spent running
other processes, which reaches the timings as noise.  Absolute timings
are machine-specific, so assertions elsewhere target relative orderings
only; measured percentages are printed beside the originally reported
bands for qualitative comparison.

Every benchmarked variant's output is verified against the baseline
before its timing loop starts, so a fast-but-wrong path cannot produce
a result.  Timing loops are single-threaded; key expansion and padding
are timed separately from the bulk work.
"""

import csv
import io
import random
import statistics
import time
from dataclasses import dataclass, fields
from functools import partial

from . import core, variants
from .core import KEY_BITS, key_expansion
from .modes import MODES, decrypt_with_residual, encrypt_with_residual, pkcs7_pad
from .variants import VARIANT_IDS, make_plan

OPS = ("encrypt", "decrypt")

# Table-1 payload sizes (KiB of the three bitmap workloads).
DEFAULT_SIZES = (117 * 1024, 263 * 1024, 468 * 1024)

# Originally reported gains, for side-by-side printing only.
REPORTED_VARIANT_GAIN_PCT = {"opt1": 13.0, "opt2": 12.0, "optf": 20.0}
REPORTED_SWEEP_BAND = {"encrypt": (14.0, 19.0), "decrypt": (15.0, 30.0)}
REPORTED_TRANSFORM_GAIN_PCT = {
    "sub_bytes": 20.0,
    "shift_rows": 30.0,
    "add_round_key": 21.0,
    "mix_columns": 13.0,
}


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple = DEFAULT_SIZES
    key_sizes: tuple = KEY_BITS
    variants: tuple = VARIANT_IDS
    modes: tuple = MODES
    ops: tuple = ("encrypt",)
    repetitions: int = 5
    seed: int = 0
    rounds: tuple | None = None  # None = standard count for each key size

    def __post_init__(self):
        if self.repetitions < 3:
            raise ValueError(f"repetitions must be >= 3, got {self.repetitions}")
        if any(s <= 0 for s in self.sizes):
            raise ValueError("payload sizes must be positive")
        for n_r in self.rounds or ():
            if n_r < 1:
                raise ValueError(f"round count must be >= 1, got {n_r}")
        for name in ("sizes", "key_sizes", "variants", "modes", "ops", "rounds"):
            values = getattr(self, name) or ()
            for v in values:
                if values.count(v) > 1:
                    raise ValueError(f"{name} lists {v!r} more than once")
        for what, values, allowed in (
            ("key size", self.key_sizes, KEY_BITS),
            ("variant", self.variants, VARIANT_IDS),
            ("mode", self.modes, MODES),
            ("op", self.ops, OPS),
        ):
            for v in values:
                if v not in allowed:
                    raise ValueError(f"unknown {what} {v!r}, expected one of {allowed}")


@dataclass(frozen=True)
class BenchResult:
    label: str
    size_bytes: int
    key_bits: int
    n_r: int
    variant: str
    mode: str
    op: str
    repetitions: int
    median_s: float
    mean_s: float
    std_s: float
    min_s: float
    max_s: float
    throughput_bps: float
    expand_s: float = 0.0
    pad_s: float = 0.0


def _time_call(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def _expand(key: bytes, n_r: int | None, repetitions: int):
    """The key schedule, and the median time of `repetitions` further
    expansions of the same key (the first call warms up).  Each
    expansion also derives the schedule's decrypt key words and
    round-key matrices, so the time covers the whole schedule and no
    cell's first pass derives them."""
    def expand():
        ks = key_expansion(key, n_r)
        core.dec_words(ks), core.round_keys(ks)
        return ks

    ks = expand()
    expand_s = statistics.median([_time_call(expand) for _ in range(repetitions)])
    return ks, expand_s


def _verify_then_measure(cells: list, repetitions: int) -> list:
    """(key, samples) for each (key, fn, expected) cell.  Every fn's
    output is checked before any timing starts, and that call is the
    cell's one untimed pass.  expected is None for a cell its caller
    has already run once: in the matrix, the call that produced the
    reference output.  The repetitions then run round-robin across the
    cells, so a transient load spike lands on one repetition of many
    cells instead of every repetition of one cell."""
    for key, fn, expected in cells:
        if expected is not None and fn() != expected:
            raise AssertionError(f"{'/'.join(map(str, key))} output disagrees with baseline")
    samples = [[] for _ in cells]
    for _ in range(repetitions):
        for i, (_key, fn, _expected) in enumerate(cells):
            samples[i].append(_time_call(fn))
    return [(key, s) for (key, _fn, _expected), s in zip(cells, samples)]


def _result(label, size_bytes, key_bits, n_r, variant, mode, op,
            samples, expand_s=0.0, pad_s=0.0) -> BenchResult:
    median = statistics.median(samples)
    return BenchResult(
        label=label,
        size_bytes=size_bytes,
        key_bits=key_bits,
        n_r=n_r,
        variant=variant,
        mode=mode,
        op=op,
        repetitions=len(samples),
        median_s=median,
        mean_s=statistics.fmean(samples),
        std_s=statistics.stdev(samples) if len(samples) > 1 else 0.0,
        min_s=min(samples),
        max_s=max(samples),
        throughput_bps=size_bytes / median if median > 0 else float("inf"),
        expand_s=expand_s,
        pad_s=pad_s,
    )


def run_matrix(cfg: BenchConfig) -> list:
    """One result per (size x key size x round count x variant x mode x
    op) cell.

    Payloads come from a generator seeded with cfg.seed, so re-running
    with the same seed reproduces them byte-for-byte.  They are random,
    so no block repeats: the mode loops compute every block, and no
    cell takes their reuse of a repeated block.  The
    key of each key size is expanded once per round count.  Within each
    (size, key, mode) group the repetitions run interleaved across round
    count, variant and op cells, so a load spike cannot systematically
    inflate any one of them.  Each round count's Base encrypt output is the
    reference its other cells must match.  Cells run the image-mode
    layout on the padded payload: it is block-aligned, so the layout
    adds no tail and no copy.
    """
    rng = random.Random(cfg.seed)
    round_counts = (None,) if cfg.rounds is None else cfg.rounds
    results = []
    for size in cfg.sizes:
        payload = rng.randbytes(size)
        t0 = time.process_time()
        padded = pkcs7_pad(payload)
        pad_s = time.process_time() - t0
        for key_bits in cfg.key_sizes:
            key = rng.randbytes(key_bits // 8)
            schedules = [_expand(key, n_r, cfg.repetitions) for n_r in round_counts]
            expand_s = {ks.n_r: s for ks, s in schedules}
            iv = rng.randbytes(16)
            for mode in cfg.modes:
                mode_iv = iv if mode == "cbc" else None
                cells = []
                for ks, _s in schedules:
                    n_r = ks.n_r
                    base_encrypt = partial(encrypt_with_residual, padded, ks, mode,
                                           make_plan("base", n_r), mode_iv)
                    reference_ct = base_encrypt()
                    op_cells = {
                        "encrypt": (encrypt_with_residual, padded, reference_ct),
                        "decrypt": (decrypt_with_residual, reference_ct, padded),
                    }
                    for variant in cfg.variants:
                        plan = make_plan(variant, n_r)
                        for op in cfg.ops:
                            if (variant, op) == ("base", "encrypt"):
                                cells.append(((n_r, variant, mode, op), base_encrypt, None))
                                continue
                            fn, data, expected = op_cells[op]
                            fn = partial(fn, data, ks, mode, plan, mode_iv)
                            cells.append(((n_r, variant, mode, op), fn, expected))
                measured = _verify_then_measure(cells, cfg.repetitions)
                for (n_r, variant, mode, op), samples in measured:
                    label = f"{size}B/{key_bits}k/{n_r}r/{variant}/{mode}/{op}"
                    results.append(_result(
                        label, len(padded), key_bits, n_r, variant, mode,
                        op, samples, expand_s[n_r], pad_s,
                    ))
    return results


TRANSFORM_PATHS = {
    "add_round_key": (core.add_round_key, variants.unrolled_add_round_key),
    "sub_bytes": (core.sub_bytes, variants.unrolled_sub_bytes),
    "shift_rows": (core.shift_rows, variants.unrolled_shift_rows),
    "mix_columns": (core.mix_columns, variants.table_mix_columns),
}


def microbench_all(iterations: int = 1_000_000, repetitions: int = 5, seed: int = 0) -> list:
    """Time the base and opt path of every transform over `iterations`
    state applications each.

    The 64-state pool and the AddRoundKey round key come from a
    generator seeded with `seed`.  Every opt path's output on every
    pool state is checked against its base path before anything is
    timed.  Each cell's applications are split into `repetitions`
    chunks, which run round-robin across the eight cells after one
    untimed chunk each; size_bytes holds the chunk size, so throughput
    reads as applications/second.
    """
    if iterations < repetitions:
        raise ValueError(
            f"iterations must be >= repetitions, got {iterations} < {repetitions}"
        )
    rng = random.Random(seed)
    pool = [
        [[rng.randrange(256) for _ in range(4)] for _ in range(4)]
        for _ in range(64)
    ]
    rk = [[rng.randrange(256) for _ in range(4)] for _ in range(4)]
    chunk = iterations // repetitions

    def chunk_runner(apply_fn):
        def run_chunk():
            for i in range(chunk):
                apply_fn(pool[i & 63])
        return run_chunk

    cells = []
    for name, (base_fn, opt_fn) in TRANSFORM_PATHS.items():
        if name == "add_round_key":
            base_fn, opt_fn = (lambda s, f=f: f(s, rk) for f in (base_fn, opt_fn))
        if any(opt_fn(s) != base_fn(s) for s in pool):
            raise AssertionError(f"{name}/opt output disagrees with baseline")
        cells += [((name, "base"), chunk_runner(base_fn), None),
                  ((name, "opt"), chunk_runner(opt_fn), None)]
    # The pool check above is the output check, so each cell's one
    # untimed pass is a chunk run here.
    for _key, fn, _expected in cells:
        fn()
    measured = _verify_then_measure(cells, repetitions)
    return [
        _result(f"{name}/{variant}/x{chunk * repetitions}", chunk, 0, 0, variant,
                "state", name, samples)
        for (name, variant), samples in measured
    ]


# ---------------------------------------------------------------------------
# Reporting

def emit_report(results: list) -> str:
    """Render results as CSV.  Column order is stable: configuration
    fields first, then statistics."""
    if not results:
        raise ValueError("no results to report")
    names = [f.name for f in fields(BenchResult)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    for r in results:
        writer.writerow([getattr(r, n) for n in names])
    return buf.getvalue()


def variant_gain_lines(results: list) -> list:
    """Measured speedups of each variant over base, with the originally
    reported percentages alongside (informational, not pass/fail)."""
    cells = {}
    for r in results:
        cells.setdefault((r.size_bytes, r.key_bits, r.n_r, r.mode, r.op), {})[r.variant] = r
    lines = []
    for (size, key_bits, n_r, mode, op), by_variant in sorted(cells.items()):
        base = by_variant.get("base")
        if base is None:
            continue
        for variant, r in sorted(by_variant.items()):
            if variant == "base":
                continue
            gain = (base.median_s - r.median_s) / base.median_s * 100.0
            reported = REPORTED_VARIANT_GAIN_PCT.get(variant)
            tail = f" (reported: {reported:.0f}%)" if reported is not None else ""
            lines.append(
                f"{mode}/{op} {size}B key{key_bits} {n_r}r: {variant} {gain:+.1f}% vs base{tail}"
            )
    return lines


def sweep_growth_lines(results: list) -> list:
    """Median growth between consecutive round counts, per series of
    cells that differ only in round count."""
    series = {}
    for r in results:
        series.setdefault((r.size_bytes, r.key_bits, r.variant, r.mode, r.op), []).append(r)
    lines = []
    for (size, key_bits, variant, mode, op), rs in sorted(series.items()):
        rs.sort(key=lambda r: r.n_r)
        lo, hi = REPORTED_SWEEP_BAND.get(op, (None, None))
        band = f" (reported band: {lo:.0f}-{hi:.0f}%)" if lo is not None else ""
        for a, b in zip(rs, rs[1:]):
            growth = (b.median_s - a.median_s) / a.median_s * 100.0
            lines.append(
                f"{mode}/{op} {size}B key{key_bits} {variant}: "
                f"rounds {a.n_r}->{b.n_r} time {growth:+.1f}%{band}"
            )
    return lines


def microbench_gain_lines(results: list) -> list:
    by_name = {}
    for r in results:
        by_name.setdefault(r.op, {})[r.variant] = r
    lines = []
    for name, pair in sorted(by_name.items()):
        if "base" not in pair or "opt" not in pair:
            continue
        base, opt = pair["base"], pair["opt"]
        gain = (base.median_s - opt.median_s) / base.median_s * 100.0
        reported = REPORTED_TRANSFORM_GAIN_PCT.get(name)
        tail = f" (reported: {reported:.0f}%)" if reported is not None else ""
        lines.append(f"{name}: optimized {gain:+.1f}% vs base{tail}")
    return lines
