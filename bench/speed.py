"""Calibrated timing for a host whose CPU speed drifts.

On a shared host the CPU's speed swings up to 2x within a second and drifts
over minutes, and neither the wall clock nor the process CPU clock can
tell. So while the timed call runs, a timer runs a fixed sub-millisecond
loop, the speed probe, inline every PROBE_INTERVAL_S, plus once before and
once after. The calling thread's CPU seconds, scaled by REFERENCE_PROBE_S
times the time-weighted mean probe rate, read as CPU seconds at the speed
where the probe takes REFERENCE_PROBE_S.

Only that CPU time is scaled. The rest of the wall time, when the calling
thread is off the CPU (sleeping, blocked on a socket or a lock, waiting for
worker threads or another process), does not depend on this process's
speed and is added unscaled. So a stage reads as its wall time on a host
running at the reference speed.

The timer fires only between bytecodes, so a long C call delays the next
probe; weighting each probe by the time around it keeps such stretches at
their share of the wall time. A probe during which another thread of this
process used CPU is dropped, because the program's own parallel work can
slow the probe and would then be credited for it; the probes before and
after the call, when no such thread runs, always count.
"""

import signal
import time

PROBE_LOOPS = 2_000
PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.0004
# a probe is dropped when other threads' CPU during it exceeds this share of it
CONTENDED_SHARE = 0.1


def speed_probe():
    """CPU seconds the probe loop takes right now on this thread's clock,
    and whether other threads of this process computed meanwhile. Time
    spent waiting for the interpreter lock or preempted does not count,
    while a slower host does. The loop creates no containers, so it never
    triggers the cyclic garbage collector and the program's heap cannot
    slow it down."""
    other = time.process_time() - time.thread_time()
    start = time.thread_time()
    counts = {}
    total = 0
    for i in range(PROBE_LOOPS):
        key = i % 97
        counts[key] = counts.get(key, 0) + 1
        total += len(str(i))
    took = time.thread_time() - start
    other = time.process_time() - time.thread_time() - other
    return took, other > CONTENDED_SHARE * took


def calibrated(fn):
    """Runs fn in the calling thread under the probe timer. Returns fn's
    result, its wall seconds, and its calibrated seconds: the thread's CPU
    time at the reference speed, less the probes' own, plus its off-CPU
    time."""
    probes = [(time.perf_counter(), speed_probe())]
    probe_cpu = 0.0

    def tick(signum, frame):
        nonlocal probe_cpu
        probes.append((time.perf_counter(), speed_probe()))
        probe_cpu += probes[-1][1][0]

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    start, start_cpu = time.perf_counter(), time.thread_time()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        cpu = time.thread_time() - start_cpu
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    probes.append((time.perf_counter(), speed_probe()))
    kept = [probes[0]] + [p for p in probes[1:-1] if not p[1][1]] + [probes[-1]]
    weighted = span = 0.0
    for (t0, (p0, _)), (t1, (p1, _)) in zip(kept, kept[1:]):
        weighted += (t1 - t0) * (1.0 / p0 + 1.0 / p1) / 2.0
        span += t1 - t0
    factor = REFERENCE_PROBE_S * weighted / span
    off_cpu = max(wall - cpu, 0.0)
    return result, wall, max(cpu - probe_cpu, 0.0) * factor + off_cpu
