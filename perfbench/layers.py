"""Per-layer metrics from a Tracer's spans, and the summary statistics
both reports use."""

import statistics
from collections import defaultdict

from aeslab import costmodel

LAYERS = ("core", "variants", "modes", "bmp", "analysis", "cli")
MODE_LOOPS = ("modes.ecb_encrypt", "modes.ecb_decrypt", "modes.cbc_encrypt", "modes.cbc_decrypt")


def summarize(xs) -> dict:
    """Median, quartiles and sample count."""
    if not xs:
        return {"value": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(xs) == 1:
        return {"value": xs[0], "q1": xs[0], "q3": xs[0], "n": 1}
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"value": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tracer, wall_s: float):
    """(per-layer metrics, per-span detail) for one traced pass of wall_s seconds."""
    self_ns = tracer.self_times()
    names = tracer.names
    self_us = defaultdict(list)  # span name -> self time of each call
    dur_us = defaultdict(list)
    layer_ns = defaultdict(int)
    top_ns = 0
    blocks = {"variants.encrypt_block": [], "variants.decrypt_block": []}
    for i, (n, p, s, e) in enumerate(zip(tracer.name_ids, tracer.parents, tracer.starts, tracer.ends)):
        name = names[n]
        self_us[name].append(self_ns[i] / 1000)
        dur_us[name].append((e - s) / 1000)
        layer_ns[name.split(".")[0]] += self_ns[i]
        if p < 0:
            top_ns += e - s
        if name in blocks:
            blocks[name].append(i)

    # Fused-round share and cost-model cycles come from each block's plan.
    opt_rounds = all_rounds = 0
    cycles = {}
    model_cycles = 0.0
    per_nr = defaultdict(lambda: {"encrypt_block_us": [], "decrypt_block_us": []})
    enc_us, dec_first_us, dec_later_us = [], [], []
    for name, idx in blocks.items():
        direction = name.split(".")[1].split("_")[0]
        for i in idx:
            tag = tracer.tags[i]
            plan = tracer.plans[tag >> 1]
            opt_rounds += sum(plan.round_flags)
            all_rounds += plan.n_r
            key = (direction, plan.n_r)
            if key not in cycles:
                fn = costmodel.encrypt_cycles if direction == "encrypt" else costmodel.decrypt_cycles
                cycles[key] = fn(costmodel.CostParams(4, plan.n_r))
            model_cycles += cycles[key]
            us = self_ns[i] / 1000
            per_nr[plan.n_r][f"{direction}_block_us"].append(us)
            if direction == "encrypt":
                enc_us.append(us)
            elif tag & 1:
                dec_first_us.append(us)
            else:
                dec_later_us.append(us)
    dec_setup_us = _median(dec_first_us) - _median(dec_later_us) if dec_later_us else 0.0
    block_ns = sum(self_ns[i] for idx in blocks.values() for i in idx)
    n_enc, n_dec = len(enc_us), len(dec_first_us) + len(dec_later_us)
    loop_self = sum(sum(self_us[n]) for n in MODE_LOOPS)
    loop_total = sum(sum(dur_us[n]) for n in MODE_LOOPS)
    wall_ns = wall_s * 1e9

    m = {
        "core.key_expansion_us": _median(self_us["core.key_expansion"]),
        "core.key_expansions": len(self_us["core.key_expansion"]),
        "variants.dec_key_setup_us": dec_setup_us,
        "variants.encrypt_block_us": _median(enc_us),
        "variants.decrypt_block_us": _median(dec_later_us or dec_first_us),
        "variants.blocks": n_enc + n_dec,
        "variants.opt_round_share": opt_rounds / all_rounds if all_rounds else 0.0,
        "modes.self_share": loop_self / loop_total if loop_total else 0.0,
        "modes.pad_us": _median(dur_us["modes.pkcs7_pad"]),
        "modes.unpad_us": _median(dur_us["modes.pkcs7_unpad"]),
        "bmp.parse_us": _median(dur_us["bmp.parse_bmp"]),
        "bmp.serialize_us": _median(dur_us["bmp.serialize_bmp"]),
        "bmp.make_test_image_ms": _median(dur_us["bmp.make_test_image"]) / 1000,
        "analysis.histogram_ms": _median(dur_us["analysis.histogram"]) / 1000,
        "analysis.duplicate_block_ratio_ms": _median(dur_us["analysis.duplicate_block_ratio"]) / 1000,
        "analysis.flatness_chi_square_us": _median(dur_us["analysis.flatness_chi_square"]),
        "cli.self_ms": _median(self_us["cli.dispatch"]) / 1000,
        "costmodel.encrypt_cycles": _mean_cycles(cycles, per_nr, "encrypt"),
        "costmodel.decrypt_cycles": _mean_cycles(cycles, per_nr, "decrypt"),
        "costmodel.ns_per_cycle": block_ns / model_cycles if model_cycles else 0.0,
        "harness.self_share": (wall_ns - top_ns) / wall_ns,
    }
    for layer in LAYERS:
        m[f"{layer}.wall_share"] = layer_ns[layer] / wall_ns

    setup_ns = sum(self_us["core.key_expansion"]) * 1000 + len(dec_first_us) * dec_setup_us * 1000
    detail = {
        "self_us_by_span": {n: summarize(v) for n, v in sorted(self_us.items())},
        "costmodel_vs_measured": {
            f"n_r={n_r}": {
                **{k: summarize(v) for k, v in row.items()},
                "model_encrypt_cycles": cycles.get(("encrypt", n_r), 0.0),
                "model_decrypt_cycles": cycles.get(("decrypt", n_r), 0.0),
            }
            for n_r, row in sorted(per_nr.items())
        },
        "key_setup_ns": setup_ns,
        "block_work_ns": block_ns - len(dec_first_us) * dec_setup_us * 1000,
    }
    return m, detail


def _mean_cycles(cycles, per_nr, direction) -> float:
    """Model cycles per block, averaged over the blocks the pass ran."""
    total = count = 0
    for n_r, row in per_nr.items():
        k = len(row[f"{direction}_block_us"])
        total += k * cycles.get((direction, n_r), 0.0)
        count += k
    return total / count if count else 0.0


def predictions(workload: str, m: dict, detail: dict) -> dict:
    """Each workload's predicted dominant layer, confirmed or refuted."""
    if workload == "bulk-file":
        share = m["variants.wall_share"]
        return {"variants block self time is the majority of the traced wall time":
                {"measured": share, "holds": share > 0.5}}
    if workload == "small-msgs":
        setup, work = detail["key_setup_ns"], detail["block_work_ns"]
        return {"key expansion plus decrypt key set-up exceed block work":
                {"measured": {"key_setup_ns": setup, "block_work_ns": work}, "holds": setup > work}}
    share = m["variants.opt_round_share"]
    return {"opt_round_share is about 0.5 (0.4 to 0.6)":
            {"measured": share, "holds": 0.4 <= share <= 0.6}}
