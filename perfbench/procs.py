"""Server subprocesses under the benchmark's control, and /proc readings.

The benchmark launches ``python3 -m repro serve`` (optionally with
``--cluster N``) from the checkout's ``src`` tree, in its own process
group, with stdout and stderr captured to files kept beside the
results.  :meth:`Served.stop` drains it with SIGTERM, kills the group
if the drain stalls, and waits until every process of it has ended.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.client import Client

CLK_TCK = os.sysconf("SC_CLK_TCK")
ANNOUNCE_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of one process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def checkout_env(root: Path, out_dir: Path) -> dict:
    """Environment for a child: the checkout's ``src`` on the path and
    temporary files kept inside the checkout."""
    tmp = out_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class Served:
    """One ``repro serve`` process tree and its measured set-up time."""

    def __init__(self, root: Path, out_dir: Path, tag: str, cluster: int = 0):
        self.root = root
        self.cluster = cluster
        self.stdout_path = out_dir / f"{tag}.stdout"
        self.stderr_path = out_dir / f"{tag}.stderr"
        self.spill_dir = out_dir / f"{tag}.spill"
        self.proc: subprocess.Popen | None = None
        self.announce: dict = {}
        self.setup_s = 0.0

    @property
    def endpoint(self) -> str:
        scheme = "cluster" if self.cluster else "tcp"
        return f"{scheme}://{self.announce['host']}:{self.announce['port']}"

    @property
    def worker_endpoints(self) -> list[str]:
        return [
            f"tcp://{w['host']}:{w['port']}" for w in self.announce.get("workers", [])
        ]

    @property
    def analysis_pids(self) -> list[int]:
        """The processes that run analyses: the workers of a cluster,
        else the server itself."""
        if self.cluster:
            return [w["pid"] for w in self.announce["workers"]]
        return [self.proc.pid]

    def start(self) -> Client:
        """Launch, wait for the announce line, answer one ``health``."""
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if self.cluster:
            # The fleet's memo gossip directory, inside the checkout
            # (by default the supervisor makes one under /tmp).
            argv += ["--cluster", str(self.cluster), "--spill-dir", str(self.spill_dir)]
        env = checkout_env(self.root, self.stdout_path.parent)
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=env, cwd=self.root,
                start_new_session=True,
            )
        self.announce = self._await_announce()
        client = Client(self.endpoint, timeout=30.0)
        client.health()
        self.setup_s = time.perf_counter() - start
        return client

    def _await_announce(self) -> dict:
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.stdout_path.read_text().splitlines():
                if line.startswith("{") and '"serving"' in line:
                    return json.loads(line)["serving"]
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before announcing; "
                    f"see {self.stderr_path}"
                )
            time.sleep(0.002)
        raise RuntimeError(f"server did not announce within {ANNOUNCE_TIMEOUT_S} s")

    def cpu_seconds(self) -> dict[str, float]:
        """CPU seconds per process: ``server`` or ``router`` + ``w0``.."""
        if not self.cluster:
            return {"server": cpu_seconds(self.proc.pid)}
        out = {"router": cpu_seconds(self.proc.pid)}
        for worker in self.announce["workers"]:
            out[worker["id"]] = cpu_seconds(worker["pid"])
        return out

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.analysis_pids)

    def stop(self) -> None:
        """Drain with SIGTERM, kill the group on a stall, reap everything."""
        if self.proc is None:
            return
        pids = [self.proc.pid] + [w["pid"] for w in self.announce.get("workers", [])]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.01)
        self.proc = None
