"""Machine-speed calibration for wall-clock timings on a shared host.

On a virtual machine that shares its host, the speed of one core can
drift by a factor of 1.5 or more within seconds, which swamps any
change to the program.  The benchmark therefore times a fixed reference
kernel (string-keyed dict inserts and lookups, tuple allocation and
Bloom-sized big-int bit tests, the operations the program's hot paths
are made of) between every chunk of replayed records.  Each chunk's
timings are multiplied by ``(REFERENCE_S / kernel time) ** ELASTICITY``,
the kernel time being the median of the samples around the chunk: the
result approximates wall time on a machine that runs the kernel in
``REFERENCE_S``.

The kernel runs no program code, so a change to the program can move it
only through the state the program leaves in the caches and the memory
allocator.  The raw wall times are printed beside the calibrated ones.
"""

from __future__ import annotations

import time

#: Kernel time, in seconds, that calibrated timings are expressed at: the
#: kernel's usual best on an unloaded 2-vCPU x86-64 VM with Python 3.11.
REFERENCE_S = 0.00125

#: How strongly the program's time follows the kernel's.  Regressing the
#: log of raw throughput on the log of the kernel's speed gave slopes of
#: 0.6 and 0.76 on two workloads; over fourteen batches of ten runs,
#: scaling by the square root of the speed ratio gave the narrowest
#: worst-case throughput spread (0.18 of the median, against 0.33 for
#: full scaling, which over-corrects when the kernel slows and the
#: program does not, and 0.26 for none).
ELASTICITY = 0.5

# The kernel's data stays small (a few hundred KiB), and each sample is
# the best of a few runs, so the samples measure the core's speed rather
# than how much of the program's data is still in the caches.
_KEYS = [f"/d{i % 7}/s{i % 11}/dir{i}/f{i}_{i % 16}" for i in range(1500)]
_BITS = (1 << 160_000) - 12_345


def kernel() -> int:
    table = {}
    for index, key in enumerate(_KEYS):
        table[key] = (index, key)
    total = 0
    for key in _KEYS:
        entry = table.get(key)
        if entry is not None and _BITS & (1 << (entry[0] * 97 % 150_000)):
            total += entry[0]
    return total


def sample(repeats: int = 3) -> float:
    """Best of ``repeats`` kernel timings, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - started)
    return best


def apply(stats) -> None:
    """Scale a finished replay's timings, chunk by chunk, to the
    reference speed.

    A chunk's machine speed is the median of the kernel samples within
    two chunks of it: single samples are noisy, and a noisy factor would
    widen the latency percentiles it multiplies.
    """
    samples = (stats.lookup_us, stats.mutation_us, stats.rename_us)
    ends = [
        marks for _, marks in stats.chunks[1:]
    ] + [[len(values) for values in samples]]
    # Work timed after the last chunk (the final partial tick) counts
    # with the last chunk.
    chunks = list(stats.chunks)
    program_s, marks = chunks[-1]
    chunks[-1] = (program_s + stats.program_s - sum(p for p, _ in chunks), marks)
    stats.calibrated_s = 0.0
    for index, ((program_s, marks), end) in enumerate(zip(chunks, ends)):
        window = sorted(stats.kernel_s[max(0, index - 2) : index + 4])
        scale = (REFERENCE_S / window[len(window) // 2]) ** ELASTICITY
        stats.calibrated_s += program_s * scale
        for values, start, stop in zip(samples, marks, end):
            values[start:stop] = [value * scale for value in values[start:stop]]
