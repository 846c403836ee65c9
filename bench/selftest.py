"""Quick tests of the benchmark itself: tiny batches and non-vacuous checks.

    python3 -m pytest -q bench/selftest.py

Every workload runs a cheap slice of its real batch through the real checks,
and each kind of check is shown to reject a wrong output.
"""

import json
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import clock  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# The one document that crashes today (see workloads.MALFORMED).
CRASHING = {"ambient_dim": 3, "degrees": [3], "eigenvalues": 5}


def cheap(job):
    """The slice of a batch a quick test can afford."""
    if job.kind == "malformed":
        return True
    if job.kind == "soliton":
        return job.ci.ambient_dim == 3
    if job.kind == "quantize":
        return job.expect["k"] <= 64
    if job.kind == "f_numeric":
        return job.ci.ambient_dim == 6 and job.bits == 256
    return job.ci.ambient_dim <= 6


def tiny_batch(workload, tmp_path, seed=7):
    batch = workloads.build(workload, seed, tmp_path)
    workloads.write_docs(batch)
    jobs = [job for job in batch.jobs if cheap(job)]
    for job in jobs:
        if job.kind == "quantize":
            job.expect["last"] = job.expect["k"] == 64
    return jobs


def run_checked(jobs):
    state = {}
    outcomes = {}
    for job in jobs:
        try:
            outcome = workloads.run_job(job)
        except TypeError:
            outcomes[job.name] = None
            continue
        checks.check(job, outcome, state)
        outcomes[job.name] = outcome
    return outcomes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_batch_passes_its_checks(workload, tmp_path):
    jobs = tiny_batch(workload, tmp_path)
    assert jobs
    outcomes = run_checked(jobs)
    crashed = [job for job in jobs if outcomes[job.name] is None]
    if workload == "exact":
        assert len(crashed) == 1
        path = crashed[0].argv[3]
        assert json.loads(Path(path).read_text()) == CRASHING
    else:
        assert not crashed


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_sets_values_not_shape(workload, tmp_path):
    def signature(seed):
        batch = workloads.build(workload, seed, tmp_path)
        return batch.docs, [(j.argv, j.inputs) for j in batch.jobs]

    first = signature(3)
    assert signature(3) == first
    other = signature(4)
    assert len(other[1]) == len(first[1])
    # soliton's varieties are fixed so that Newton's path repeats
    assert (other == first) == (workload == "soliton")


def _job(jobs, name):
    return next(job for job in jobs if job.name == name)


def _rejects(job, outcome, state=None):
    with pytest.raises(checks.CheckFailed):
        checks.check(job, outcome, {} if state is None else state)


def _hex(value):
    """A dyadic Fraction in the CLI's hex form."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    return f"{sign}{hex(value.numerator)}p{1 - value.denominator.bit_length():+d}"


def _nudge(key, rel_bits):
    """An edit scaling payload[key] by 1 + 2^-rel_bits."""
    def change(payload):
        value = checks.hex_value(payload[key])
        payload[key]["hex"] = _hex(value * (1 + F(1, 2 ** rel_bits)))
    return change


def _edit(outcome, change):
    code, text = outcome
    payload = json.loads(text)
    change(payload)
    return code, json.dumps(payload)


def test_exact_checks_reject_wrong_output(tmp_path):
    jobs = tiny_batch("exact", tmp_path)
    job = _job(jobs, "cubic/eval")
    outcome = workloads.run_job(job)
    checks.check(job, outcome, {})

    def perturb_terms(payload):
        term = payload["terms"][0]
        exp = next(iter(term["coefficients"]))
        term["coefficients"][exp] = str(F(term["coefficients"][exp]) + F(1, 10 ** 6))
    _rejects(job, _edit(outcome, perturb_terms))

    def perturb_string(payload):
        payload["expression"] = payload["expression"].replace("(1/48)", "(1/47)")
    _rejects(job, _edit(outcome, perturb_string))

    _rejects(job, _edit(outcome, _nudge("numeric", job.bits - 24)))

    def list_coefficients(payload):
        term = payload["terms"][0]
        term["coefficients"] = list(term["coefficients"].values())
    _rejects(job, _edit(outcome, list_coefficients))

    # a later round reuses the references but still compares its own output
    state = {}
    job = _job(jobs, "n6c/eval")
    outcome = workloads.run_job(job)
    checks.check(job, outcome, state)
    assert state["references"]
    _rejects(job, _edit(outcome, perturb_terms), state)
    _rejects(job, _edit(outcome, _nudge("numeric", job.bits - 24)), state)
    checks.check(job, outcome, state)

    for name in ("cubic/derivative", "quadrics/derivative", "n5d/derivative",
                 "n5c/derivative-self"):
        job = _job(jobs, name)
        outcome = workloads.run_job(job)
        checks.check(job, outcome, {})
        _rejects(job, _edit(outcome, _nudge("numeric", job.bits - 24)))

    job = _job(jobs, "cubic/verify")
    _rejects(job, _edit(workloads.run_job(job),
                        lambda p: p["checks"][0].update(ok=False)))
    job = next(job for job in jobs if job.kind == "malformed")
    _rejects(job, (0, json.dumps({"status": "ok"})))
    _rejects(job, _edit(workloads.run_job(job),
                        lambda p: p["error"].update(code="not_fano_at_all")))


def test_f_numeric_check_rejects_lost_bits(tmp_path):
    jobs = tiny_batch("numeric-twin", tmp_path)
    for job in jobs:
        outcome = workloads.run_job(job)
        checks.check(job, outcome, {})
        with mpmath.workprec(job.bits + 64):
            nudge = 1 + mpmath.mpf(2) ** (-(job.bits - 24))
            if job.expect:
                _rejects(job, type(outcome)(outcome.value * nudge,
                                            outcome.derivative))
                _rejects(job, type(outcome)(outcome.value,
                                            outcome.derivative * nudge))
            else:
                _rejects(job, outcome * nudge)


def test_quantize_checks_reject_wrong_fk(tmp_path):
    jobs = tiny_batch("quantize", tmp_path)
    job = _job(jobs, "quadrics/k32-t0")
    outcome = workloads.run_job(job)
    checks.check(job, outcome, {})
    _rejects(job, _edit(outcome, _nudge("fk", 200)))
    _rejects(job, _edit(outcome, lambda p: p.update(nk=p["nk"] + 1)))

    ladder = [job for job in jobs
              if job.expect.get("ladder", "").startswith("cubic-t")
              and job.expect["t"] != 0]
    state = {}
    outcomes = [workloads.run_job(job) for job in ladder]
    for job, outcome in zip(ladder, outcomes):
        checks.check(job, outcome, state)
    # hand the last level the ratio of the first: k times its error jumps
    first = json.loads(outcomes[0][1])
    _rejects(ladder[-1], _edit(outcomes[-1],
                               lambda p: p.update(ratio=first["ratio"])), state)

    def ladder_passes(error):
        """Check the ladder with the ratio set to F + error(k) at each k."""
        state = {}
        for job, outcome in zip(ladder, outcomes):
            k = job.expect["k"]

            def change(payload):
                ratio = checks.hex_value(payload["localization"]) + error(k)
                payload["ratio"]["hex"] = _hex(ratio)
            checks.check(job, _edit(outcome, change), state)

    # an error of 1/(64k) - 1/(2k^2) passes through 0 at k = 32 and grows
    # again at k = 64; k times it stays bounded, so the ladder passes
    ladder_passes(lambda k: F(1, 64 * k) - F(1, 2 * k * k))
    # k times an error of 1/k - 3/k^2 + 32/k^3 is 15/16 at k = 16 and 32 and
    # 123/128 at k = 64: its steps grow before they fall, and the ladder passes
    ladder_passes(lambda k: F(1, k) - F(3, k * k) + F(32, k ** 3))
    # an offset of 1/20 that does not vanish with k fails the ladder
    with pytest.raises(checks.CheckFailed):
        ladder_passes(lambda k: F(1, k) + F(1, 20))


def test_soliton_check_rejects_off_maximum(tmp_path):
    jobs = tiny_batch("soliton", tmp_path)
    job = _job(jobs, "cubic-r1/soliton")
    outcome = workloads.run_job(job)
    checks.check(job, outcome, {})

    def off_maximum(payload):
        c = F(payload["coefficients"][0])
        payload["coefficients"][0] = str(float(c * (1 + F(1, 10 ** 6))))
    _rejects(job, _edit(outcome, off_maximum))
    _rejects(job, _edit(outcome, lambda p: p.update(trivial=True)))
    fermat = _job(jobs, "fermat-r0/soliton")
    _rejects(fermat, _edit(workloads.run_job(fermat),
                           lambda p: p.update(trivial=False)))


def test_tracer_counts_only_inside_jobs(tmp_path):
    jobs = tiny_batch("soliton", tmp_path)
    job = _job(jobs, "cubic-r1/soliton")
    tracer = Tracer()
    tracer.install()
    try:
        workloads.run_job(job)               # outside a job: not recorded
        assert tracer.spans == []
        tracer.job = job.name
        outcome = workloads.run_job(job)
        tracer.job = None
        checks.check(job, outcome, {})       # a check: not recorded
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert metrics["futaki.f_numeric_calls"] == 38
    assert metrics["soliton.find_soliton_s"] <= metrics["cli.main_s"]
    assert 0 < metrics["futaki.f_numeric_self_s"] < metrics["futaki.f_numeric_s"]
    assert {span["job"] for span in tracer.records()} == {job.name}


def test_clock_scales_by_the_samples_around_each_job():
    timer = clock.Clock()
    timer.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    timer.samples = [0.001, 0.002, 0.004, 0.003, 0.1]
    assert clock.WINDOW_S == 0.5
    # samples from 0.5 s before to 0.5 s after the job: at 1.0, 2.0 and 3.0
    assert timer.scaled(0.6, 2.6, 1.5) == pytest.approx(
        1.5 * clock.REFERENCE_S / 0.003)
    assert timer.scaled(1.8, 2.2, 0.4) == pytest.approx(
        0.4 * clock.REFERENCE_S / 0.004)


def test_clock_samples_on_its_timer():
    timer = clock.Clock()
    timer.start()
    end = time.perf_counter() + 0.35
    while time.perf_counter() < end:
        pass
    timer.stop()
    assert len(timer.samples) >= 2
    assert timer.stolen == pytest.approx(sum(timer.samples))
