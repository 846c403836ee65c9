"""Every output of the benchmark's batches for seeds 1-3 is as pinned.

A change that moves an output on purpose regenerates the file with
`scripts/pin_outputs.py`, which holds a moved numeric slot to the job's
precision plus 32 bits.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN_OUTPUTS = ROOT / "scripts" / "pin_outputs.py"


def load_pin_outputs():
    spec = importlib.util.spec_from_file_location("pin_outputs", PIN_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bench_output_is_as_pinned():
    pin = load_pin_outputs()
    pinned = json.loads(pin.PINNED.read_text(encoding="utf-8"))
    current, _ = pin.outputs()
    moved = sorted(key for key in pinned.keys() | current.keys()
                   if pinned.get(key) != current.get(key))
    assert not moved, f"{len(moved)} of {len(pinned)} outputs moved: {moved}"
