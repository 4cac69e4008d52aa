"""Child processes of the benchmark, run against the checkout's own source.

Children are spawned with ``sys.executable`` and ``src/`` first on
PYTHONPATH, so they import the working tree and never an installed
copy. Their stdout and stderr are read to EOF: a reader that stops
early makes `revlcg generate` die of a broken pipe with a traceback.

Each child is reaped with ``os.wait4``. On Linux its ``ru_maxrss``
starts at the spawning process's peak RSS (exec inherits it), so it
measures the child only when the parent is smaller. The child's own
peak, ``VmHWM`` in /proc, is sampled each time its stdout is read.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Result(NamedTuple):
    stdout: bytes
    stderr: bytes
    returncode: int
    wall_s: float
    first_byte_s: float  # spawn to first stdout byte; wall_s if none came
    maxrss_mib: float  # os.wait4 ru_maxrss: at least the parent's peak RSS
    hwm_mib: float  # the child's own peak RSS when its stdout was last read; 0 if never


def vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:  # gone, or no /proc
        pass
    return 0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(args: list[str], timeout_s: float = 170.0) -> Result:
    """Run ``sys.executable *args`` in the checkout root and read it to EOF."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    first_byte = None
    hwm = 0
    deadline = start + timeout_s
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            events = sel.select(timeout=max(0.0, deadline - time.perf_counter()))
            if not events:
                proc.kill()
                break
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fileobj)
                    continue
                if key.fileobj is proc.stdout:
                    if first_byte is None:
                        first_byte = time.perf_counter() - start
                    hwm = max(hwm, vm_hwm_kib(proc.pid))
                chunks[key.fileobj].append(data)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(
        stdout=b"".join(chunks[proc.stdout]),
        stderr=b"".join(chunks[proc.stderr]),
        returncode=proc.returncode,
        wall_s=wall,
        first_byte_s=wall if first_byte is None else first_byte,
        maxrss_mib=usage.ru_maxrss / 1024,
        hwm_mib=hwm / 1024,
    )
