"""The benchmark harness still runs against the library it measures.

perfbench reads the model's pieces (the routing decision's logits, the
forward's 3-tuple, the encoder state); a change to them that the harness
does not follow shows here as a failed run, not first in a benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("trace", ["0", "1"], ids=["plain", "traced"])
def test_desk_train_runs_correct_with_no_failed_operation(trace):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", "desk_train", "--seed", "3",
                           "--seconds", "0", "--trace", trace],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
