"""Pin every output of the benchmark's batches for seeds 1-3 in one file.

    PYTHONPATH=src python3 scripts/pin_outputs.py

Runs, in this process, every job that `bench/workloads.build` makes for the
four workloads and seeds 1, 2 and 3, and writes `tests/data/pinned_outputs.json`
keyed by `workload/seed/job`. A CLI job is kept as the SHA-256 of its exit
code and stdout, with the temporary document directory replaced by a fixed
token. An `f_numeric` job is kept as the `_mpf_` of every slot, as text.
`tests/test_pinned.py` recomputes them and names every job that moved.

A rewrite names each job that moved. For a moved numeric slot it prints how
many bits the new value shares with the pinned one, and it writes nothing if
any slot shares fewer than the job's precision plus 32.
"""

from __future__ import annotations

import ast
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import mpmath

from modfutaki.exactalg import Dual

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "pinned_outputs.json"
SEEDS = (1, 2, 3)
# a moved numeric slot must still agree with the pinned one to this many
# bits beyond the precision its job asked for
MARGIN_BITS = 32

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (bench/workloads.py)


def _slots(x):
    """The mpf slots of x, a Dual of any depth flattened value first."""
    if isinstance(x, Dual):
        return _slots(x.value) + _slots(x.derivative)
    sign, man, exp, bc = x._mpf_
    return [str((sign, int(man), exp, bc))]


def outputs():
    """({key: digest or slot texts}, {key: precision of each f_numeric job})."""
    pinned, precision = {}, {}
    with mpmath.workprec(53):
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                with tempfile.TemporaryDirectory() as tmp:
                    batch = workloads.build(workload, seed, Path(tmp))
                    workloads.write_docs(batch)
                    for job in batch.jobs:
                        key = f"{workload}/{seed}/{job.name}"
                        outcome = workloads.run_job(job)
                        if job.argv is None:
                            pinned[key] = _slots(outcome)
                            precision[key] = job.bits
                        else:
                            code, stdout = outcome
                            text = f"{code}\n{stdout.replace(tmp, '<docs>')}"
                            pinned[key] = hashlib.sha256(text.encode()).hexdigest()
    return pinned, precision


def agreement_bits(old, new):
    """Bits on which two slot texts agree, relative to the larger value."""
    with mpmath.workprec(8192):
        a, b = (mpmath.mpf(ast.literal_eval(x)) for x in (old, new))
        if a == b:
            return mpmath.inf
        return -mpmath.log(abs(b - a) / max(abs(a), abs(b)), 2)


def main():
    current, precision = outputs()
    old = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    refused = False
    for key in sorted(old.keys() ^ current.keys()):
        print(f"{'new' if key in current else 'gone'}: {key}")
    for key in sorted(old.keys() & current.keys()):
        if old[key] == current[key]:
            continue
        if key not in precision:
            print(f"moved: {key}")
            continue
        bits = [agreement_bits(a, b) for a, b in zip(old[key], current[key])]
        worst = min(bits)
        floor = precision[key] + MARGIN_BITS
        print(f"moved: {key}: {sum(b != mpmath.inf for b in bits)} of "
              f"{len(bits)} slots, the worst to {mpmath.nstr(worst, 4)} bits "
              f"(precision {precision[key]})")
        refused |= worst < floor
    if refused:
        print(f"refused: a slot agrees on fewer than precision + {MARGIN_BITS} "
              f"bits; {PINNED.relative_to(ROOT)} is unchanged")
        return 1
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(current, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(current)} outputs to {PINNED.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
