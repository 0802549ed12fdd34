"""Shared pieces of the benchmark: paths, statistics, the machine-speed
references, memory readings and the fresh-interpreter set-up probe.

Nothing here imports :mod:`repro`; the workload modules do that after
:func:`require_source` has put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import os
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Iterations of the reference loop; ~2 ms on a 2-vCPU cloud VM.
REF_ITERATIONS = 12_000
#: The reference values scaled figures are normalised to.  A scaled time is
#: "what this run would have measured on a machine whose reference takes
#: this long"; see README.md ("Machine-speed reference").
NOMINAL = {"loop": 2.0, "ipc": 40.0, "mem": 10.0}
#: Size of the array the memory reference sums: larger than the last-level
#: cache, so a pass reads main memory.
MEM_REFERENCE_BYTES = 64 * 1024 * 1024


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, a server that won't boot)."""


def require_source() -> None:
    """Put ``src`` on the import path, or fail when the checkout has no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's sources first,
    and no ambient tracing/event sinks inherited from the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("REPRO_OBS", "REPRO_EVENTS"):
        env.pop(name, None)
    return env


# -- machine-speed reference ---------------------------------------------------

def ref_loop() -> int:
    """A fixed pure-Python loop (integer arithmetic and a small dict).

    It touches no numpy/BLAS, which use other execution units and threads and
    would make the reference read the machine's vector speed instead of its
    interpreter speed.
    """
    acc = 0
    table: Dict[int, int] = {}
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc


def ref_sample() -> float:
    """One timing of :func:`ref_loop`, in milliseconds."""
    start = time.perf_counter()
    ref_loop()
    return (time.perf_counter() - start) * 1e3


_CHILD = """
import socket, sys, time
peer = socket.socket(fileno=int(sys.argv[1]))
array = None
while True:
    data = peer.recv(64)
    if not data:
        break
    if data == b"m":
        if array is None:
            import numpy
            array = numpy.ones(int(sys.argv[2]) // 8)
        start = time.perf_counter()
        array.sum()
        peer.sendall(repr(time.perf_counter() - start).encode())
    else:
        peer.sendall(data)
"""


class ReferenceChild:
    """A child process, connected by a socket pair, that takes two of the
    machine-speed references:

    * a one-byte round trip: the machine's wake-up and system-call speed,
      which a cache hit over loopback HTTP follows and the pure-Python loop
      does not;
    * one pass summing a float array larger than the last-level cache: the
      machine's memory bandwidth, which the HiGHS solve follows.

    Both run in the child so the array never counts in the benchmark
    process's peak memory.
    """

    def __init__(self) -> None:
        mine, theirs = socket.socketpair()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(theirs.fileno()), str(MEM_REFERENCE_BYTES)],
                pass_fds=[theirs.fileno()],
            )
        except BaseException:
            mine.close()
            raise
        finally:
            theirs.close()
        self.socket = mine

    def round_trip_us(self) -> float:
        """One round trip, in µs.  Taken after other work, it includes waking
        the idle child, as a request includes waking the idle server."""
        start = time.perf_counter()
        self.socket.sendall(b"x")
        self.socket.recv(64)
        return (time.perf_counter() - start) * 1e6

    def memory_pass_ms(self) -> float:
        """One pass over the child's array, timed in the child, in ms."""
        self.socket.sendall(b"m")
        return float(self.socket.recv(64)) * 1e3

    def close(self) -> None:
        self.socket.close()  # the child reads EOF and exits
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# -- statistics ----------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> float:
    """The highest order statistic with at least ten samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 40:
        raise BenchmarkError(f"a tail needs at least 40 samples, got {len(ordered)}")
    return float(ordered[len(ordered) - 11])


# -- memory --------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_status_kb(pid: int, field: str) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (read from ``/proc``)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        parents[int(entry)] = int(fields[1])
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parents.items() if parent == current]
        found.extend(children)
        frontier.extend(children)
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident memory (VmHWM) of ``pid`` and its descendants."""
    total = 0.0
    for member in [pid] + descendants(pid):
        value = _proc_status_kb(member, "VmHWM")
        if value is not None:
            total += value
    return total / 1024.0


# -- set-up probe --------------------------------------------------------------

def probe_setup(code: str, importtime: bool = False, timeout: float = 60.0) -> Dict[str, float]:
    """Run ``code`` in a fresh interpreter; return its wall time in seconds and,
    with ``importtime``, the import costs read from ``-X importtime``."""
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += ["-c", code]
    start = time.perf_counter()
    completed = subprocess.run(
        command, cwd=str(ROOT), env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    seconds = time.perf_counter() - start
    if completed.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{completed.stderr[-2000:]}")
    result = {"seconds": seconds}
    if importtime:
        result.update(parse_importtime(completed.stderr))
    return result


def parse_importtime(stderr: str) -> Dict[str, float]:
    """``import.repro_ms``: cumulative time of the top-level ``repro`` imports;
    ``import.scipy_ms``: cumulative time of the first ``scipy.optimize`` import."""
    repro_us = 0.0
    scipy_us = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        module = name.strip()
        if depth == 0 and (module == "repro" or module.startswith("repro.")):
            repro_us += float(cumulative)
        if module == "scipy.optimize" and not scipy_us:
            scipy_us = float(cumulative)
    return {"import.repro_ms": repro_us / 1e3, "import.scipy_ms": scipy_us / 1e3}
