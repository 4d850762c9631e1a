"""Correctness gate: known answers, sampled ciphertext blocks recomputed
with the baseline cipher, exact round trips, and a self-test that the
checks catch one flipped ciphertext bit.

Every check returns None when it passes and a one-line reason when it
fails; the Tally counts each checked operation.
"""

import random
from time import perf_counter, process_time

from aeslab import core, modes, variants
from calibration import calibration_s

BLOCK = 16
CALIBRATION_PERIOD_S = 0.25

# FIPS-197 Appendix C: one plaintext under a 128-, 192- and 256-bit key.
FIPS197_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS197_VECTORS = (
    ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
)

VARIANTS = ("base", "opt1", "opt2", "optf")


class OpFailed(Exception):
    """An operation raised, returned a wrong exit code or failed its check."""


class Tally:
    """Counts operations and failures; keeps the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.cpu_s = 0.0  # summed over timed operations
        self.wall_s = 0.0
        self.calibrations = []  # a calibration_s() reading per period of timed work
        self._next_calibration = 0.0

    def record(self, what: str, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {problem}")

    def timed(self, what: str, fn, *args, check=None):
        """Run fn(*args) as one operation; return (output, CPU seconds).

        Operations are timed in process CPU time: on a shared machine the
        wall clock also counts time the CPU served other tenants.  Both
        totals are kept so the report shows the difference.  Between
        operations the machine's speed is calibrated once every
        CALIBRATION_PERIOD_S seconds.  The check runs after the clocks
        stop.  A failure is counted and raised as OpFailed so the caller
        skips the steps that need it.
        """
        if perf_counter() >= self._next_calibration:
            self.calibrations.append(calibration_s())
            self._next_calibration = perf_counter() + CALIBRATION_PERIOD_S
        problem = None
        try:
            w0, c0 = perf_counter(), process_time()
            out = fn(*args)
            cpu, wall = process_time() - c0, perf_counter() - w0
            self.cpu_s += cpu
            self.wall_s += wall
            if check is not None:
                problem = check(out)
        except Exception as e:  # any error from the program under test is a failed operation
            problem = f"{type(e).__name__}: {e}"
        self.record(what, problem)
        if problem is not None:
            raise OpFailed(what)
        return out, cpu


def pkcs7(data: bytes) -> bytes:
    k = BLOCK - len(data) % BLOCK
    return data + bytes([k]) * k


def sampled_block_error(ks, mode, plaintext, ciphertext, iv, rng, count=1, include=()):
    """Recompute `count` seeded blocks and the `include`d ones with
    core.encrypt_block: C_i = E(M_i) for ECB and C_i = E(M_i xor C_{i-1}),
    C_{-1} = IV, for CBC."""
    if len(ciphertext) != len(plaintext) or len(plaintext) % BLOCK:
        return f"{mode} ciphertext is {len(ciphertext)} bytes for {len(plaintext)} bytes of blocks"
    n = len(plaintext) // BLOCK
    picks = {*include, *(rng.randrange(n) for _ in range(count))}
    for i in sorted(picks):
        m = plaintext[BLOCK * i:BLOCK * (i + 1)]
        if mode == "cbc":
            prev = iv if i == 0 else ciphertext[BLOCK * (i - 1):BLOCK * i]
            m = bytes(a ^ b for a, b in zip(m, prev))
        if core.encrypt_block(m, ks) != ciphertext[BLOCK * i:BLOCK * (i + 1)]:
            return f"{mode} block {i} differs from the baseline cipher"
    return None


def blob_error(ks, mode, message, blob, iv, rng, count=1, include=()):
    """Check the raw-file layout: [IV ||] PKCS#7-padded ciphertext."""
    if mode == "cbc":
        if blob[:BLOCK] != iv:
            return "CBC blob does not start with its IV"
        blob = blob[BLOCK:]
    return sampled_block_error(ks, mode, pkcs7(message), blob, iv, rng, count, include)


def round_trip_error(expected):
    return lambda out: None if out == expected else "round trip differs from the input"


def _known_answer_error(key_hex, ct_hex):
    ks = core.key_expansion(bytes.fromhex(key_hex))
    ct = bytes.fromhex(ct_hex)
    if core.encrypt_block(FIPS197_PLAINTEXT, ks) != ct:
        return "core.encrypt_block"
    if core.decrypt_block(ct, ks) != FIPS197_PLAINTEXT:
        return "core.decrypt_block"
    for v in VARIANTS:
        plan = variants.make_plan(v, ks.n_r)
        if variants.encrypt_block_variant(FIPS197_PLAINTEXT, ks, plan) != ct:
            return f"{v} encrypt"
        if variants.decrypt_block_variant(ct, ks, plan) != FIPS197_PLAINTEXT:
            return f"{v} decrypt"
    return None


def _flip_caught_error(mode, rng):
    """Flip one seeded ciphertext bit; both the block check and the round
    trip must report it."""
    ks = core.key_expansion(rng.randbytes(16))
    plan = variants.make_plan("optf", ks.n_r)
    message = rng.randbytes(50)
    iv = rng.randbytes(BLOCK) if mode == "cbc" else None
    blob = modes.encrypt_blob(message, ks, mode, plan, iv)
    if blob_error(ks, mode, message, blob, iv, rng) is not None:
        return "the unflipped ciphertext fails its check"
    offset = BLOCK if mode == "cbc" else 0
    bit = rng.randrange(8 * (len(blob) - offset))
    flipped = bytearray(blob)
    flipped[offset + bit // 8] ^= 1 << bit % 8
    flipped = bytes(flipped)
    if blob_error(ks, mode, message, flipped, iv, rng, include=(bit // 8 // BLOCK,)) is None:
        return "block check missed a flipped bit"
    try:
        caught = modes.decrypt_blob(flipped, ks, mode, plan) != message
    except ValueError:  # PaddingError is a ValueError
        caught = True
    return None if caught else "round trip missed a flipped bit"


def run_gate(tally: Tally, seed: int) -> None:
    """The checks that run before timing starts."""
    for key_hex, ct_hex in FIPS197_VECTORS:
        tally.record(f"FIPS-197 AES-{len(key_hex) * 4}", _known_answer_error(key_hex, ct_hex))
    rng = random.Random(f"gate/{seed}")
    for mode in ("ecb", "cbc"):
        tally.record(f"{mode} bit-flip self-test", _flip_caught_error(mode, rng))
