import csv
import io
import statistics

import pytest

from aeslab import bench, core
from aeslab.bench import (
    BenchConfig,
    BenchResult,
    emit_report,
    microbench_all,
    microbench_gain_lines,
    microbench_transform,
    run_matrix,
    sweep_growth_lines,
    variant_gain_lines,
)

SMALL = BenchConfig(
    sizes=(2048,),
    key_sizes=(128,),
    variants=("base", "optf"),
    modes=("ecb",),
    ops=("encrypt",),
    repetitions=3,
    warmup=0,
    seed=5,
)

# The round-count growth experiment: AES-128 Base ECB, both ops, at
# several round counts.
ROUND_SWEEP = {
    "key_sizes": (128,),
    "variants": ("base",),
    "modes": ("ecb",),
    "ops": ("encrypt", "decrypt"),
    "rounds": (2, 4, 6, 8, 10),
}


@pytest.fixture(scope="module")
def small_results():
    return run_matrix(SMALL)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(repetitions=2)
    with pytest.raises(ValueError):
        BenchConfig(sizes=(0,))
    with pytest.raises(ValueError):
        BenchConfig(warmup=-1)
    # every name a cell would misread or fail on is refused up front
    with pytest.raises(ValueError, match="unknown key size 512"):
        BenchConfig(key_sizes=(128, 512))
    with pytest.raises(ValueError, match="unknown variant 'turbo'"):
        BenchConfig(variants=("base", "turbo"))
    with pytest.raises(ValueError, match="unknown variant 'multable'"):
        BenchConfig(variants=("multable",))
    with pytest.raises(ValueError, match="unknown mode 'ctr'"):
        BenchConfig(modes=("ctr",))
    with pytest.raises(ValueError, match="unknown op 'frobnicate'"):
        BenchConfig(ops=("encrypt", "frobnicate"))
    with pytest.raises(ValueError, match="round count must be >= 1, got 0"):
        BenchConfig(rounds=(0,))
    # a repeated value would time one cell twice under one label
    for field, values in (
        ("sizes", (64, 128, 64)),
        ("key_sizes", (128, 128)),
        ("variants", ("base", "base")),
        ("modes", ("ecb", "ecb")),
        ("ops", ("decrypt", "encrypt", "decrypt")),
        ("rounds", (2, 2)),
    ):
        with pytest.raises(ValueError, match=f"^{field} lists {values[0]!r} more than once$"):
            BenchConfig(**{field: values})


def test_matrix_cell_count_and_labels(small_results):
    assert len(small_results) == 2  # 1 size x 1 key x 2 variants x 1 mode x 1 op
    labels = {r.label for r in small_results}
    assert "2048B/128k/10r/base/ecb/encrypt" in labels
    assert "2048B/128k/10r/optf/ecb/encrypt" in labels


def test_result_statistics_are_consistent(small_results):
    for r in small_results:
        assert r.min_s <= r.median_s <= r.max_s
        assert r.min_s <= r.mean_s <= r.max_s
        assert r.repetitions == 3
        assert r.throughput_bps > 0
        assert r.expand_s > 0  # median of 3 timed key expansions
        assert r.size_bytes == 2064  # padded payload


def test_matrix_is_reproducible_modulo_timing():
    a = run_matrix(SMALL)
    b = run_matrix(SMALL)
    fixed = lambda r: (r.label, r.size_bytes, r.key_bits, r.n_r, r.variant, r.mode, r.op)
    assert [fixed(r) for r in a] == [fixed(r) for r in b]


def test_matrix_covers_modes_and_decrypt():
    cfg = BenchConfig(sizes=(512,), key_sizes=(128,), variants=("base",),
                      modes=("ecb", "cbc"), ops=("encrypt", "decrypt"),
                      repetitions=3, warmup=0, seed=6)
    results = run_matrix(cfg)
    assert {(r.mode, r.op) for r in results} == {
        ("ecb", "encrypt"), ("ecb", "decrypt"), ("cbc", "encrypt"), ("cbc", "decrypt"),
    }


def test_round_sweep_mechanics():
    results = run_matrix(BenchConfig(**{**ROUND_SWEEP, "sizes": (1024,), "rounds": (1, 2),
                                        "repetitions": 3, "warmup": 0, "seed": 7}))
    assert len(results) == 4  # 2 round counts x encrypt/decrypt
    assert {r.n_r for r in results} == {1, 2}
    assert {r.op for r in results} == {"encrypt", "decrypt"}
    assert all(r.expand_s > 0 for r in results)
    with pytest.raises(ValueError):
        run_matrix(BenchConfig(**{**ROUND_SWEEP, "rounds": (0,)}))


def test_round_sweep_interleaves_round_counts(monkeypatch):
    # Interleaving every round count's cells is what keeps one load spike
    # from inflating a single count and breaking the growth ordering.
    calls = []
    measure = bench._verify_then_measure

    def recording(cells, repetitions, warmup):
        calls.append({(key[0], key[-1]) for key, _fn, _expected in cells})
        return measure(cells, repetitions, warmup)

    monkeypatch.setattr(bench, "_verify_then_measure", recording)
    results = run_matrix(BenchConfig(**{**ROUND_SWEEP, "sizes": (64, 128), "rounds": (1, 2),
                                        "repetitions": 3, "warmup": 0, "seed": 7}))
    cells = {(n_r, op) for n_r in (1, 2) for op in ("encrypt", "decrypt")}
    assert calls == [cells, cells]  # one call per size
    assert len(results) == 8


def test_microbench_mechanics():
    r = microbench_transform("sub_bytes", "base", iterations=600, repetitions=3)
    assert isinstance(r, BenchResult)
    assert r.op == "sub_bytes"
    assert r.variant == "base"
    assert r.median_s > 0
    with pytest.raises(ValueError):
        microbench_transform("mystery", "base")
    with pytest.raises(ValueError):
        microbench_transform("sub_bytes", "quick")
    with pytest.raises(ValueError, match="iterations must be >= repetitions, got 2 < 3"):
        microbench_transform("sub_bytes", "base", iterations=2, repetitions=3)


def test_microbench_checks_opt_transform_before_timing(monkeypatch):
    # A wrong optimized path is refused before any timed chunk runs.
    monkeypatch.setitem(bench.TRANSFORM_PATHS, "sub_bytes", (core.sub_bytes, core.inv_sub_bytes))
    with pytest.raises(AssertionError, match="sub_bytes/opt output disagrees with baseline"):
        microbench_transform("sub_bytes", "opt", iterations=30, repetitions=3)
    assert microbench_transform("sub_bytes", "base", iterations=30, repetitions=3).variant == "base"


def test_optimized_paths_run_faster():
    # modest iteration counts keep this quick; comparing best-of-reps
    # filters scheduler noise, and the gaps are wide enough (no inner
    # loop / no shift-and-xor multiply) to dominate what remains
    for name in ("add_round_key", "sub_bytes", "shift_rows", "mix_columns"):
        base = microbench_transform(name, "base", iterations=30_000, repetitions=3)
        opt = microbench_transform(name, "opt", iterations=30_000, repetitions=3)
        assert opt.min_s < base.min_s, name


def test_emit_report_csv(small_results):
    text = emit_report(small_results, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][:7] == ["label", "size_bytes", "key_bits", "n_r", "variant", "mode", "op"]
    assert "median_s" in rows[0] and "throughput_bps" in rows[0]
    assert len(rows) == 1 + len(small_results)


def test_emit_report_text_and_errors(small_results):
    text = emit_report(small_results, "text")
    assert "label: 2048B/128k/10r/base/ecb/encrypt" in text
    with pytest.raises(ValueError):
        emit_report(small_results, "yaml")
    with pytest.raises(ValueError):
        emit_report([], "csv")


def _fake_result(variant, op, median, n_r=10, size=1000, mode="ecb"):
    return BenchResult(
        label=f"{size}B/{128}k/{n_r}r/{variant}/{mode}/{op}",
        size_bytes=size, key_bits=128, n_r=n_r, variant=variant, mode=mode,
        op=op, repetitions=3, warmup=1, median_s=median, mean_s=median,
        std_s=0.0, min_s=median, max_s=median, throughput_bps=size / median,
    )


def test_variant_gain_lines_report_measured_vs_reported():
    results = [_fake_result("base", "encrypt", 2.0),
               _fake_result("optf", "encrypt", 1.0)]
    lines = variant_gain_lines(results)
    assert len(lines) == 1
    assert "optf +50.0% vs base" in lines[0]
    assert "key128 10r:" in lines[0]  # tells the round counts of a --rounds list apart
    assert "reported: 20%" in lines[0]


def test_sweep_growth_lines():
    results = [_fake_result("base", "encrypt", 1.0, n_r=8),
               _fake_result("base", "encrypt", 1.2, n_r=10)]
    lines = sweep_growth_lines(results)
    assert len(lines) == 1
    assert "rounds 8->10" in lines[0]
    assert "+20.0%" in lines[0]
    assert "14-19%" in lines[0]


def test_sweep_growth_lines_keep_each_series_apart():
    # A sweep over two variants is two series; the growth of each is
    # taken between its own round counts.
    results = [_fake_result("base", "encrypt", 1.0, n_r=1),
               _fake_result("optf", "encrypt", 0.5, n_r=1),
               _fake_result("base", "encrypt", 1.2, n_r=2),
               _fake_result("optf", "encrypt", 0.6, n_r=2)]
    lines = sweep_growth_lines(results)
    assert len(lines) == 2
    assert lines[0].startswith("ecb/encrypt 1000B key128 base: rounds 1->2 time +20.0%")
    assert lines[1].startswith("ecb/encrypt 1000B key128 optf: rounds 1->2 time +20.0%")


def test_microbench_gain_lines():
    results = microbench_all(iterations=300, repetitions=3)
    lines = microbench_gain_lines(results)
    assert len(lines) == 4
    assert any("shift_rows" in line and "reported: 30%" in line for line in lines)


def test_results_record_dispersion(small_results):
    for r in small_results:
        samples_spread = r.max_s - r.min_s
        assert r.std_s >= 0
        assert samples_spread >= 0
        # sanity: std of three samples can't exceed their full spread
        assert r.std_s <= samples_spread + 1e-12 or samples_spread == 0


@pytest.mark.parametrize("warmup", [0, 1, 2])
def test_matrix_output_check_is_first_warmup_pass(monkeypatch, warmup):
    # The Base encrypt cell's checked run is also the reference, and every
    # cell's checked run is its first untimed pass.
    runs = []
    encrypt = bench.encrypt_with_residual

    def counting(data, ks, mode, plan, iv):
        runs.append("optf" if all(plan.round_flags) else "base")
        return encrypt(data, ks, mode, plan, iv)

    monkeypatch.setattr(bench, "encrypt_with_residual", counting)
    cfg = BenchConfig(sizes=(64,), key_sizes=(128,), variants=("base", "optf"),
                      modes=("ecb",), ops=("encrypt",), repetitions=3,
                      warmup=warmup, seed=5)
    results = run_matrix(cfg)
    untimed = max(warmup, 1)
    assert runs.count("base") == runs.count("optf") == untimed + 3
    assert [r.warmup for r in results] == [untimed, untimed]
