"""The host and configuration block stamped on every result.

Timings are only comparable on the same machine with the same kernel
backend, so :func:`comparable` refuses any pair that differs in those.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, List


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(module: str) -> str:
    try:
        mod = __import__(module)
    except ImportError:
        return "absent"
    return str(getattr(mod, "__version__", "unknown"))


def host_block() -> Dict[str, object]:
    """CPU, core count, interpreter and library versions, kernel backend
    and every ``COSCHED_*`` variable in the environment."""
    from repro.perf import kernels

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "kernels": kernels.backend_info(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("COSCHED_")},
    }


#: Fields that must agree before two results may be compared.
_MUST_MATCH = ("cpu_model", "nproc", "python", "numpy", "scipy")


def comparable(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Reasons two host blocks may not be compared (empty when they may)."""
    reasons = [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
               for k in _MUST_MATCH if a.get(k) != b.get(k)]
    ka, kb = a.get("kernels") or {}, b.get("kernels") or {}
    for k in ("backend", "provider"):
        if ka.get(k) != kb.get(k):
            reasons.append(f"kernels.{k}: {ka.get(k)!r} != {kb.get(k)!r}")
    return reasons
