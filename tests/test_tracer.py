"""The benchmark tracer still finds every package function it wraps.

``benchmarks/tracing.py`` wraps functions by name and reports a name that
is gone as an absent layer.  ``selftest.check_tracer`` requires spans of
the layers the worked problem reaches; a fresh tracer's ``install`` must
also find every entry point, since some (``similarity_sine_select``,
``translate_inverse``) are only reached by other workloads.  The check
runs in a process of its own, since installing the tracer replaces the
package's functions for the rest of the process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from run import require_checkout
require_checkout()
import selftest
import tracing
errors = selftest.check_tracer()
tracer = tracing.Tracer()
tracer.install()
errors += [f"absent entry point: {name}" for name in tracer.absent]
print("\\n".join(errors))
sys.exit(1 if errors else 0)
"""


def test_check_tracer_finds_no_error():
    proc = subprocess.run([sys.executable, "-c", _CHECK, str(ROOT / "benchmarks")],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
