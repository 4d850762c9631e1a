"""Span tracing at aeslab's layer boundaries, from outside the package.

A Tracer replaces boundary functions with wrappers in the module where
their caller looks them up (``aeslab.cli.key_expansion`` for the CLI,
``aeslab.modes.encrypt_block_variant`` for the mode loops, ...), records
one span per call in memory and restores the originals on exit.  The
first part of a span name is its layer.
"""

import importlib
from array import array
from time import perf_counter_ns

# (module that looks the function up, attribute, span name)
BOUNDARIES = (
    ("aeslab.cli", "dispatch", "cli.dispatch"),
    ("aeslab.cli", "key_expansion", "core.key_expansion"),
    ("aeslab.core", "key_expansion", "core.key_expansion"),
    ("aeslab.modes", "encrypt_blob", "modes.encrypt_blob"),
    ("aeslab.modes", "decrypt_blob", "modes.decrypt_blob"),
    ("aeslab.modes", "encrypt_with_residual", "modes.encrypt_with_residual"),
    ("aeslab.modes", "decrypt_with_residual", "modes.decrypt_with_residual"),
    ("aeslab.modes", "ecb_encrypt", "modes.ecb_encrypt"),
    ("aeslab.modes", "ecb_decrypt", "modes.ecb_decrypt"),
    ("aeslab.modes", "cbc_encrypt", "modes.cbc_encrypt"),
    ("aeslab.modes", "cbc_decrypt", "modes.cbc_decrypt"),
    ("aeslab.modes", "pkcs7_pad", "modes.pkcs7_pad"),
    ("aeslab.modes", "pkcs7_unpad", "modes.pkcs7_unpad"),
    ("aeslab.modes", "encrypt_block_variant", "variants.encrypt_block"),
    ("aeslab.modes", "decrypt_block_variant", "variants.decrypt_block"),
    ("aeslab.bmp", "make_test_image", "bmp.make_test_image"),
    ("aeslab.bmp", "serialize_bmp", "bmp.serialize_bmp"),
    ("aeslab.bmp", "parse_bmp", "bmp.parse_bmp"),
    ("aeslab.analysis", "histogram", "analysis.histogram"),
    ("aeslab.analysis", "duplicate_block_ratio", "analysis.duplicate_block_ratio"),
    ("aeslab.analysis", "flatness_chi_square", "analysis.flatness_chi_square"),
)


class Tracer:
    """Context manager that records spans (name, start, end, parent).

    It may be entered again; spans accumulate across entries.
    """

    def __init__(self):
        self.names = sorted({name for _, _, name in BOUNDARIES})
        self.name_ids = array("B")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.tags = array("q")  # block spans: plan index << 1 | first decrypt on its schedule
        self.plans = []  # every plan a block span saw, indexed by its tag
        self._plan_index = {}  # id(plan) -> index; self.plans keeps ids unique
        self._last_dec_schedule = None
        self._stack = [-1]
        self._saved = []

    def __enter__(self):
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _plan_tag(self, plan) -> int:
        i = self._plan_index.get(id(plan))
        if i is None:
            i = self._plan_index[id(plan)] = len(self.plans)
            self.plans.append(plan)
        return i << 1

    def _decrypt_tag(self, args) -> int:
        # (block, schedule, plan): the first decrypt on a schedule derives
        # its InvMixColumns key words.
        first = args[1] is not self._last_dec_schedule
        self._last_dec_schedule = args[1]
        return self._plan_tag(args[2]) | first

    def _wrap(self, fn, name):
        name_id = self.names.index(name)
        if name == "variants.encrypt_block":
            tag = lambda args: self._plan_tag(args[2])  # noqa: E731
        elif name == "variants.decrypt_block":
            tag = self._decrypt_tag
        else:
            tag = None
        name_ids, parents, starts, ends, tags, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.tags, self._stack)

        def wrapper(*args, **kwargs):
            i = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1])
            tags.append(tag(args) if tag else 0)
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        return wrapper

    def self_times(self) -> list:
        """Per-span duration minus the durations of its direct children, in ns."""
        self_ns = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                self_ns[p] -= self.ends[i] - self.starts[i]
        return self_ns

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        names = self.names
        lines = ["id\tparent\tname\tstart_ns\tend_ns\ttag"]
        lines += [
            f"{i}\t{p}\t{names[n]}\t{s}\t{e}\t{t}"
            for i, (p, n, s, e, t) in enumerate(
                zip(self.parents, self.name_ids, self.starts, self.ends, self.tags))
        ]
        path.write_text("\n".join(lines) + "\n")
