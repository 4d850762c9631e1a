"""The three workloads.  Each builds its inputs from the seed, and its
run_round(i, tally, samples) replays round i identically, so a traced
pass can repeat the exact work of an untraced one.

Every call into aeslab goes through a module attribute (``cli.dispatch``,
``modes.encrypt_blob``, ...) so the Tracer's wrappers see it.
"""

import dataclasses
import random
from collections import defaultdict

from aeslab import analysis, bmp, cli, core, modes, variants
from checks import OpFailed, blob_error, round_trip_error, sampled_block_error

KEY_BYTES = (16, 24, 32)


def _add(acc: dict, metric: str, nbytes: int, seconds: float) -> None:
    acc[metric][0] += nbytes
    acc[metric][1] += seconds


def _rate_kBps(acc: dict, samples: dict) -> None:
    """One sample per metric: plaintext kB over the seconds its calls took."""
    for metric, (nbytes, seconds) in acc.items():
        if seconds > 0:
            samples[metric].append(nbytes / seconds / 1000)


class BulkFile:
    """One random 117 KiB file through aeslab.cli.dispatch, OptF, AES-128:
    ECB and CBC, encrypt then decrypt, via files in a temporary directory."""

    name = "bulk-file"
    SIZE = 117 * 1024 - 3  # the paper's smallest bitmap size, not block-aligned
    LAST_BLOCK = SIZE // 16  # holds the padding

    def __init__(self, seed: int, workdir):
        rng = random.Random(f"{self.name}/{seed}")
        self.data = rng.randbytes(self.SIZE)
        self.key = rng.randbytes(16)
        self.iv = rng.randbytes(16)
        self.variant = "optf"
        self.seed = seed
        self.ks = core.key_expansion(self.key)  # for the output checks
        self.dir = workdir
        self.plain = workdir / "plain.bin"
        self.plain.write_bytes(self.data)

    def _dispatch_check(self, out_path, check):
        def run(code):
            if code != cli.EXIT_OK:
                return f"exit code {code}"
            return check(out_path.read_bytes())
        return run

    def run_round(self, i, tally, samples):
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        for mode in ("ecb", "cbc"):
            ct, back = self.dir / f"{mode}.ct", self.dir / f"{mode}.back"
            key_args = ["--key-hex", self.key.hex(), "--variant", self.variant, "--mode", mode]
            iv_args = ["--iv-hex", self.iv.hex()] if mode == "cbc" else []
            iv = self.iv if mode == "cbc" else None
            try:
                _, t = tally.timed(
                    f"{mode} encrypt file", cli.dispatch,
                    ["encrypt", *key_args, *iv_args, "--in", str(self.plain), "--out", str(ct)],
                    check=self._dispatch_check(
                        ct, lambda blob: blob_error(self.ks, mode, self.data, blob, iv, rng,
                                                   count=2, include=(0, self.LAST_BLOCK))))
                samples[f"{mode}_encrypt_kBps"].append(self.SIZE / t / 1000)
                _, t = tally.timed(
                    f"{mode} decrypt file", cli.dispatch,
                    ["decrypt", *key_args, "--in", str(ct), "--out", str(back)],
                    check=self._dispatch_check(back, round_trip_error(self.data)))
                samples[f"{mode}_decrypt_kBps"].append(self.SIZE / t / 1000)
            except OpFailed:
                continue


class SmallMsgs:
    """Short messages, each sealed and opened under its own fresh key."""

    name = "small-msgs"
    BATCH = 60  # a multiple of 6: every (mode, key size) pair equally often

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.variant = "optf"
        self.plans = {n_r: variants.make_plan(self.variant, n_r) for n_r in (10, 12, 14)}
        self.key = self._messages(0)[0][1]

    def _messages(self, i):
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        out = []
        for j in range(self.BATCH):
            mode = ("ecb", "cbc")[j % 2]
            key = rng.randbytes(KEY_BYTES[j % 3])
            iv = rng.randbytes(16) if mode == "cbc" else None
            out.append((mode, key, iv, rng.randbytes(rng.randrange(96))))
        return out

    def _seal(self, key, message, mode, iv):
        ks = core.key_expansion(key)
        return ks, modes.encrypt_blob(message, ks, mode, self.plans[ks.n_r], iv)

    def _open(self, key, blob, mode):
        ks = core.key_expansion(key)
        return modes.decrypt_blob(blob, ks, mode, self.plans[ks.n_r])

    def run_round(self, i, tally, samples):
        rng = random.Random(f"{self.name}/{self.seed}/{i}/check")
        acc = defaultdict(lambda: [0, 0.0])
        for mode, key, iv, message in self._messages(i):
            try:
                (_, blob), t_seal = tally.timed(
                    f"{mode} seal", self._seal, key, message, mode, iv,
                    check=lambda out: blob_error(out[0], mode, message, out[1], iv, rng))
                _, t_open = tally.timed(f"{mode} open", self._open, key, blob, mode,
                                        check=round_trip_error(message))
            except OpFailed:
                continue
            _add(acc, f"{mode}_encrypt_kBps", len(message), t_seal)
            _add(acc, f"{mode}_decrypt_kBps", len(message), t_open)
            samples["msg_us"].append((t_seal + t_open) * 1e6)
        _rate_kBps(acc, samples)


class ImageLadder:
    """The paper's image experiment on small bitmaps: every test pattern
    under every key size, Opt1 and Opt2 alternating across patterns."""

    name = "image-ladder"
    SIDE = 33  # 100-byte rows x 33 rows: 206 blocks plus a 4-byte residual tail
    IMAGES = 12  # 4 patterns x 3 key sizes, so every round has the same mix

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.variant = "opt1"
        self.key = self._images(0)[0][2]

    def _images(self, i):
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        return [
            (bmp.TEST_PATTERNS[j % 4], ("opt1", "opt2")[j % 2],
             rng.randbytes(KEY_BYTES[j % 3]), rng.randbytes(16))
            for j in range(self.IMAGES)
        ]

    @staticmethod
    def _analyze(file_bytes):
        img = bmp.parse_bmp(file_bytes)
        h = analysis.histogram(img)
        return h, analysis.duplicate_block_ratio(img.pixels), analysis.flatness_chi_square(h)

    @staticmethod
    def _codec(img):
        data = bmp.serialize_bmp(img)
        return data, bmp.parse_bmp(data)

    def _residual_check(self, ks, mode, pixels, iv, rng):
        cut = len(pixels) - len(pixels) % 16

        def check(out):
            if out[cut:] != pixels[cut:]:
                return "residual tail changed"
            return sampled_block_error(ks, mode, pixels[:cut], out[:cut], iv, rng, include=(0,))
        return check

    def _image(self, pattern, variant, key, iv, tally, acc, rng):
        side = self.SIDE
        img, _ = tally.timed(
            f"{pattern} make", bmp.make_test_image, pattern, side, side,
            check=lambda im: None if (im.width, im.height) == (side, side) else "wrong size")
        (plain_file, _), _ = tally.timed(
            f"{pattern} codec", self._codec, img,
            check=lambda out: None if out[1] == img else "parse(serialize(image)) differs")
        ks = core.key_expansion(key)
        plan = variants.make_plan(variant, ks.n_r)
        pixels = img.pixels
        files = {"plain": plain_file}
        for mode in ("ecb", "cbc"):
            mode_iv = iv if mode == "cbc" else None
            ct, t = tally.timed(
                f"{pattern} {mode} encrypt", modes.encrypt_with_residual,
                pixels, ks, mode, plan, mode_iv,
                check=self._residual_check(ks, mode, pixels, mode_iv, rng))
            _add(acc, f"{mode}_encrypt_kBps", len(pixels), t)
            _, t = tally.timed(
                f"{pattern} {mode} decrypt", modes.decrypt_with_residual,
                ct, ks, mode, plan, mode_iv, check=round_trip_error(pixels))
            _add(acc, f"{mode}_decrypt_kBps", len(pixels), t)
            files[mode] = bmp.serialize_bmp(dataclasses.replace(img, pixels=ct))

        leaks = {}
        for label, data in files.items():
            (h, leak, _), t = tally.timed(
                f"{pattern} analyze {label}", self._analyze, data,
                check=lambda out: self._analysis_error(pattern, label, out, leaks))
            leaks[label] = leak
            _add(acc, "analyze_kBps", len(data), t)

    def _analysis_error(self, pattern, label, out, leaks):
        h, leak, _ = out
        if h.total_pixels != self.SIDE * self.SIDE:
            return f"histogram counts {h.total_pixels} pixels"
        if label == "ecb":
            if leak.distinct_blocks != leaks["plain"].distinct_blocks:
                return "ECB ciphertext and plaintext differ in distinct blocks"
            if pattern == "constant-color" and leak.distinct_blocks != 1:
                return f"ECB constant-color has {leak.distinct_blocks} distinct blocks"
        if label == "cbc" and leak.distinct_ratio != 1.0:
            return f"CBC distinct-block ratio {leak.distinct_ratio}"
        return None

    def run_round(self, i, tally, samples):
        rng = random.Random(f"{self.name}/{self.seed}/{i}/check")
        acc = defaultdict(lambda: [0, 0.0])
        for pattern, variant, key, iv in self._images(i):
            try:
                self._image(pattern, variant, key, iv, tally, acc, rng)
            except OpFailed:
                continue
        _rate_kBps(acc, samples)


WORKLOADS = {w.name: w for w in (BulkFile, SmallMsgs, ImageLadder)}
