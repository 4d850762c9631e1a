"""Machine-speed calibration.

On a shared machine the CPU's speed drifts by tens of percent over
minutes.  calibration_s() times a fixed piece of interpreter work that
never calls aeslab; the end-to-end figures are scaled to the speed at
which it reads REFERENCE_S, so drift common to both cancels.  This
module imports nothing aeslab imports, so a set-up sample can calibrate
in its own interpreter without warming aeslab's import.
"""

from time import process_time

REFERENCE_S = 0.005
STEPS = 6000
_TABLE = [(i * 0x9E3779B1) & 0xFFFFFFFF for i in range(256)]


def calibration_s() -> float:
    """CPU seconds for table lookups, shifts, XORs and small lists, as in
    a cipher round."""
    t = _TABLE
    x = 0x12345678
    out = []
    c0 = process_time()
    for i in range(STEPS):
        row = [t[x & 255], t[(x >> 8) & 255], t[(x >> 16) & 255], t[x >> 24]]
        x = (row[0] ^ row[1] ^ (row[2] << 1) ^ row[3] ^ i) & 0xFFFFFFFF
        out.append(x & 255)
    bytes(out)
    return process_time() - c0
