"""Shared pieces of the benchmark.

- where the program lives (``src/`` of the checkout that holds this
  directory) and how to start a fresh interpreter on it;
- the span recorder used by traced runs;
- the matching check, written against a private copy of the input so
  that it trusts nothing the program computed;
- order statistics and machine facts.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

clock = time.perf_counter
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = {"full": 9, "tiny": 1}


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's
    ``src/`` and nothing installed elsewhere under the same name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_TELEMETRY", None)
    return env


def child_seconds(code: str, reps: int) -> list[float]:
    """Run ``code`` in ``reps`` fresh interpreters; each prints the
    seconds it measured as its last line."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed (rc {proc.returncode}): "
                f"{proc.stderr.strip()[-400:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------

def random_next(rng: np.random.Generator, n: int) -> np.ndarray:
    """``NEXT`` array of a list that visits a random permutation."""
    order = rng.permutation(n)
    nxt = np.empty(n, dtype=np.int64)
    nxt[order[:-1]] = order[1:]
    nxt[order[-1]] = -1
    return nxt


# ---------------------------------------------------------------------------
# Output check.
# ---------------------------------------------------------------------------

def matching_error(nxt: np.ndarray, tails: Any) -> str | None:
    """Why ``tails`` is not a maximal matching of the list ``nxt``.

    ``tails`` names the chosen pointers ``<t, nxt[t]>``.  Returns
    ``None`` when the pointers exist, share no node (independence) and
    every other pointer touches a matched node (maximality).
    """
    n = nxt.size
    t = np.asarray(tails)
    if t.ndim != 1 or (t.size and t.dtype.kind not in "iu"):
        return "tails is not a 1-d integer array"
    t = t.astype(np.int64)
    if t.size and (int(t.min()) < 0 or int(t.max()) >= n):
        return "a tail is out of range"
    heads = nxt[t]
    if np.any(heads < 0):
        return "a tail has no outgoing pointer"
    cover = np.bincount(np.concatenate([t, heads]), minlength=n)
    if n and int(cover.max()) > 1:
        return "two chosen pointers share a node"
    v = np.flatnonzero(nxt >= 0)
    if np.any((cover[v] == 0) & (cover[nxt[v]] == 0)):
        return "a pointer with two unmatched ends was left out"
    return None


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------

class Trace:
    """Spans around the benchmark's calls into the program.

    A span is ``[name, start, end, parent, op, state]``; ``parent`` is
    the index of the enclosing span (-1 for a root) and ``op`` the
    workload op the call served.  Spans stay in memory until
    :meth:`write`.  A disabled trace records nothing.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list[Any]] = []

    def add(self, name: str, start: float, end: float, *, parent: int = -1,
            op: int = -1, state: str = "") -> int:
        if not self.enabled:
            return -1
        self.spans.append([name, start, end, parent, op, state])
        return len(self.spans) - 1

    def open(self, name: str, *, parent: int = -1, op: int = -1) -> int:
        return self.add(name, clock(), float("nan"), parent=parent, op=op)

    def close(self, sid: int) -> None:
        if sid >= 0:
            self.spans[sid][2] = clock()

    def durations_ms(self, name: str, state: str | None = None) -> list[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans
                if s[0] == name and (state is None or s[5] == state)]

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus
        the time its direct children cover (children of one parent run
        one after another, so their durations add)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start - child[i]) * 1e3
        return out

    def write(self, path: Path, extra: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**extra, "self_ms": self.self_ms(),
               "fields": ["name", "start", "end", "parent", "op", "state"],
               "spans": self.spans}
        path.write_text(json.dumps(doc))


def span_cost_s(samples: int = 20000) -> float:
    """Seconds one :meth:`Trace.add` costs, measured on a scratch trace."""
    scratch = Trace(True)
    t0 = clock()
    for i in range(samples):
        scratch.add("x", 0.0, 1.0, parent=-1, op=i)
    return (clock() - t0) / samples


# ---------------------------------------------------------------------------
# Statistics and results.
# ---------------------------------------------------------------------------

def pct(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def med(values) -> float:
    return pct(values, 50)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    #: Per metric: ``cold`` (the program had not seen the input),
    #: ``warm`` (it had) or ``mixed``; metrics not named here are cold.
    state: dict[str, str] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)

    def check(self, error: str | None, what: str) -> None:
        """Count one checked result; keep the first few failures."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: {error}")

    def row(self, name: str, value: float, unit: str, state: str,
            samples: int) -> None:
        """An informational row: printed in the report, never bounded."""
        self.rows.append({"name": name, "value": value, "unit": unit,
                          "state": state, "samples": samples})

    def latencies(self, ms, state: str) -> None:
        """The op latency metrics from op times in ms."""
        self.end_to_end["op_ms_p50"] = med(ms)
        self.samples["op_ms_p50"] = len(ms)
        self.state["op_ms_p50"] = state
        for q in (75, 90, 99):
            self.row(f"op_ms_p{q}", pct(ms, q), "ms", state, len(ms))


def machine_facts() -> dict[str, Any]:
    """Host facts stored with every result set.  Cache sizes are per
    core as ``getconf`` reports them (``None`` where it cannot)."""
    def getconf(name: str) -> int | None:
        try:
            proc = subprocess.run(["getconf", name], capture_output=True,
                                  text=True, timeout=10, check=False)
            value = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None
        return value if value > 0 else None

    return {
        "nproc": os.cpu_count(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }
