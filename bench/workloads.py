"""Seeded fixed batches of jobs for the four workloads, and how a job runs.

A batch is the same list of jobs in the same order for a given seed. The seed
draws only values (eigenvalues, weights, directions, evaluation points); the
shape of every job (ambient dimension, codimension, block structure, level,
precision) is fixed here, so that the cost of a batch does not depend on the
seed. The program sees only the generated CLI documents and arguments.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F

import mpmath

from modfutaki import cli, futaki
from modfutaki.exactalg import Dual
from modfutaki.geometry import CompleteIntersectionSpec, DiagonalField, validate

from checks import to_mpf

WORKLOADS = ("exact", "numeric-twin", "soliton", "quantize")
PRECISION = 256

# Golden varieties with closed forms of F: {(frequency, t-exponent): coefficient}.
CUBIC = CompleteIntersectionSpec.create(
    3, [3], [[[1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]])
CUBIC_FIELD = DiagonalField.create([-7, 5, 1, 1], [3])
CUBIC_F = {(F(-4), -2): F(-1, 48), (F(8), -2): F(-1, 24), (F(4), -2): F(1, 16)}
QUADRICS = CompleteIntersectionSpec.create(
    4, [2, 2],
    [[[1, 1, 0, 0, 0], [0, 0, 2, 0, 0]], [[0, 2, 0, 0, 0], [0, 0, 0, 1, 1]]])
QUADRICS_FIELD = DiagonalField.create([-7, 3, -2, 5, 1], [-4, 6])
QUADRICS_F = {(F(-5), -2): F(-1, 48), (F(7), -2): F(-1, 24), (F(3), -2): F(1, 16)}
GOLDEN = {"cubic": (CUBIC, CUBIC_FIELD, CUBIC_F),
          "quadrics": (QUADRICS, QUADRICS_FIELD, QUADRICS_F)}

# Soliton varieties by torus dimension r = 0, 1, 2, 3.
FERMAT_CUBIC = CompleteIntersectionSpec.create(
    3, [3], [[[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]])
P4_CUBIC = CompleteIntersectionSpec.create(4, [3], [[[2, 1, 0, 0, 0],
                                                     [0, 0, 1, 1, 1]]])
# A smooth conic: r = 1 with its maximum at the origin, so Newton takes no step.
CONIC = CompleteIntersectionSpec.create(2, [2], [[[1, 1, 0], [0, 0, 2]]])
# The CLI's lowest precision: Newton takes the same steps with the same
# f_numeric calls as at 256 bits, at about half the cost, so a soliton round
# fits a run.
SOLITON_BITS = 64

# exact: one distinct-eigenvalue and one confluent variety per dimension.
EXACT_DIMS = (3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 22, 24)
EXACT_T = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1))
# Documents the CLI must refuse with exit 2 and this error code.
MALFORMED = (
    ("not_fano", {"ambient_dim": 3, "degrees": [2, 3]}),
    ("not_traceless", {"ambient_dim": 3, "degrees": [3],
                       "eigenvalues": ["1", "0", "0", "0"], "weights": ["0"]}),
    ("malformed_support", {"ambient_dim": 3, "degrees": [3],
                           "supports": [[[1, 1, 0, 0]]]}),
    ("inconsistent_weights", {"ambient_dim": 3, "degrees": [3],
                              "supports": [[[1, 2, 0, 0], [0, 0, 2, 1]]],
                              "eigenvalues": ["1", "-1", "0", "0"]}),
    ("invalid_input", {"ambient_dim": 3, "degrees": [3],
                       "supports": [[[1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]],
                       "eigenvalues": ["-7", "5", "1", "1"], "weights": ["4"]}),
    ("invalid_input", {"degrees": [3]}),
    # Escapes load_input as an uncaught TypeError today, so it counts as failed.
    ("invalid_input", {"ambient_dim": 3, "degrees": [3], "eigenvalues": 5}),
)

# numeric-twin: (N, degrees, eigenvalue pattern, Dual inputs, precision bits).
# Seven jobs are cheaper than Dual at N = 6 and six dearer, so the median job
# (job_p50_s) falls in the middle of the seven Dual N = 6 jobs at 256 bits for
# every seed. Those seven are spread over the batch.
NUMERIC_JOBS = (
    (6, (2,), "spread", True, 256),
    (6, (2,), "spread", False, 256), (6, (2,), "clustered", False, 256),
    (16, (3,), "coincident", True, 256),
    (6, (2,), "clustered", True, 256),
    (6, (2,), "coincident", False, 256), (6, (2,), "clustered", False, 512),
    (6, (2,), "coincident", True, 256),
    (16, (3,), "spread", False, 256), (10, (2, 2), "clustered", True, 256),
    (6, (2,), "spread", True, 256),
    (10, (2, 2), "spread", False, 256), (10, (2, 2), "coincident", False, 256),
    (6, (2,), "clustered", True, 256),
    (24, (2,), "clustered", False, 256), (16, (3,), "coincident", False, 512),
    (6, (2,), "coincident", True, 256),
    (10, (2, 2), "spread", False, 512), (6, (2,), "coincident", True, 512),
    (6, (2,), "spread", True, 256),
)

# quantize: the k ladder on the golden varieties, and k*m <= 512 on random ones.
K_LADDER = (16, 32, 64, 128, 256, 512, 1024)
# The t != 0 point of every ladder. It is not seeded: the cost of a job at a
# small level depends on t, and a seeded t moved which jobs sit around the
# median job from seed to seed.
QUANTIZE_T = F(1, 2)
QUANTIZE_RANDOM = ((3, (2,)), (5, (2, 2)))


@dataclass
class Job:
    """One call into the program, and what its check needs to know."""

    name: str
    kind: str
    ci: object
    field: object
    bits: int = PRECISION
    argv: list | None = None
    inputs: tuple | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Batch:
    jobs: list
    docs: dict          # path -> JSON document
    warmup: list        # one untimed job of each kind


def run_job(job):
    """The timed call: cli.main on a document, or f_numeric on numbers."""
    if job.argv is not None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job.argv)
        return code, out.getvalue()
    return futaki.f_numeric(job.ci, *job.inputs, job.bits)


def build(workload, seed, docdir):
    """The workload's seeded batch; every valid input is validated here."""
    rng = random.Random(f"{workload}:{seed}")
    batch = Batch([], {}, [])
    BUILDERS[workload](batch, rng, docdir)
    for job in batch.jobs + batch.warmup:
        if job.kind != "malformed":
            validate(job.ci, job.field)
    return batch


def write_docs(batch):
    for path, doc in batch.docs.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# --- documents and CLI jobs --------------------------------------------------

def _doc(ci, fld):
    doc = {"ambient_dim": ci.ambient_dim, "degrees": list(ci.degrees),
           "eigenvalues": [str(x) for x in fld.eigenvalues]}
    if ci.supports is None:
        doc["weights"] = [str(a) for a in fld.weights]
    else:
        doc["supports"] = [[list(mono) for mono in sup] for sup in ci.supports]
    return doc


def _cli_job(batch, docdir, name, kind, ci, fld, command, *extra, doc=None,
             bits=PRECISION, **expect):
    path = str(docdir / f"{name.split('/')[0]}.json")
    batch.docs[path] = doc if doc is not None else _doc(ci, fld)
    argv = ["--format", "json", command, path, *map(str, extra)]
    if kind != "malformed":
        argv += ["--precision", str(bits)]
    return Job(name, kind, ci, fld, bits, argv=argv, expect=expect)


def _direction_arg(ci, direction):
    doc = {"eigenvalues": [str(x) for x in direction.eigenvalues]}
    if ci.supports is None:
        doc["weights"] = [str(b) for b in direction.weights]
    return json.dumps(doc)


# --- seeded values -----------------------------------------------------------

def _rational(rng, num=24, den=12):
    return F(rng.randint(-num, num), rng.randint(1, den))


def _traceless(rng, blocks, singles, num=24, den=12):
    """Eigenvalues: each block size repeats one value; the rest are distinct."""
    while True:
        values = [_rational(rng, num, den) for _ in range(len(blocks) + singles)]
        values.append(-sum(b * v for b, v in zip(blocks, values))
                      - sum(values[len(blocks):]))
        if len(set(values)) == len(values):
            eig = [v for b, v in zip(blocks, values) for _ in range(b)]
            eig += values[len(blocks):]
            rng.shuffle(eig)
            return eig


def _degrees(rng, n, codim):
    while True:
        degrees = [rng.randint(1, 3) for _ in range(codim)]
        if sum(degrees) <= n:
            return degrees


def _confluent_blocks(n):
    """A block of about N/2 repeated eigenvalues, plus a pair from N = 8 on."""
    return [max(2, n // 2)] + ([2] if n >= 8 else [])


# --- exact ------------------------------------------------------------------

def _build_exact(batch, rng, docdir):
    jobs = batch.jobs
    for name, (ci, fld, closed) in GOLDEN.items():
        t = rng.choice(EXACT_T)
        jobs.append(_cli_job(batch, docdir, f"{name}/eval", "eval", ci, fld,
                             "eval", "--t", t, closed_form=closed))
        if name == "cubic":
            # the torus is the line through V, so the direction is c V
            c = rng.choice((F(-2), F(-1, 2), F(1, 3), F(3)))
            direction = fld.scaled(c)
            job = _cli_job(batch, docdir, f"{name}/derivative", "derivative",
                           ci, fld, "derivative", "--direction",
                           _direction_arg(ci, direction), "--t", t,
                           closed_form=closed, along_field=c)
        else:
            # admissible for the quadrics: l0 = 7a/2, l1 = -3a/2, l2 = a,
            # l3 = b, l4 = -3a - b
            a, b = _rational(rng, 6, 4), _rational(rng, 6, 4)
            eig = (7 * a / 2, -3 * a / 2, a, b, -3 * a - b)
            direction = DiagonalField(eig, (eig[0] + eig[1], 2 * eig[1]))
            job = _cli_job(batch, docdir, f"{name}/derivative", "derivative",
                           ci, fld, "derivative", "--direction",
                           _direction_arg(ci, direction), "--t", t,
                           direction=direction)
        jobs.append(job)
        jobs.append(_cli_job(batch, docdir, f"{name}/verify", "verify", ci, fld,
                             "verify"))
    for i, n in enumerate(EXACT_DIMS):
        for confluent in (False, True):
            codim = (i + 2 * confluent) % 4
            ci = CompleteIntersectionSpec.create(n, _degrees(rng, n, codim))
            blocks = _confluent_blocks(n) if confluent else []
            eig = _traceless(rng, blocks, n - sum(blocks))
            fld = DiagonalField(tuple(eig),
                                tuple(_rational(rng, 9, 5) for _ in range(codim)))
            w = _traceless(rng, [], n)
            direction = DiagonalField(
                tuple(w), tuple(_rational(rng, 9, 5) for _ in range(codim)))
            t = rng.choice(EXACT_T)
            tag = f"n{n}{'c' if confluent else 'd'}"
            jobs.append(_cli_job(batch, docdir, f"{tag}/eval", "eval", ci, fld,
                                 "eval", "--t", t))
            jobs.append(_cli_job(batch, docdir, f"{tag}/derivative-self",
                                 "derivative", ci, fld, "derivative",
                                 "--direction", _direction_arg(ci, fld),
                                 "--t", t, along_field=F(1)))
            jobs.append(_cli_job(batch, docdir, f"{tag}/derivative", "derivative",
                                 ci, fld, "derivative", "--direction",
                                 _direction_arg(ci, direction), "--t", t,
                                 direction=direction))
    for i, (code, doc) in enumerate(MALFORMED):
        jobs.append(_cli_job(batch, docdir, f"malformed{i}/eval", "malformed",
                             None, None, "eval", "--t", "1/2", doc=doc, code=code))
    ci, fld, closed = GOLDEN["cubic"]
    batch.warmup += [
        _cli_job(batch, docdir, "warmup/eval", "eval", ci, fld, "eval",
                 "--t", "1/2", closed_form=closed),
        _cli_job(batch, docdir, "warmup/derivative", "derivative", ci, fld,
                 "derivative", "--direction", _direction_arg(ci, fld),
                 "--t", "1/2", closed_form=closed, along_field=F(1)),
        _cli_job(batch, docdir, "warmup/verify", "verify", ci, fld, "verify"),
        _cli_job(batch, docdir, "warmup-malformed/eval", "malformed", None, None,
                 "eval", doc=MALFORMED[0][1], code=MALFORMED[0][0]),
    ]


# --- numeric-twin -----------------------------------------------------------

def _pinned(rng, size, pattern):
    """Mirrored dyadic eigenvalues with max |x| = 1 and tangents with max 1/2.

    Pinning the extremes pins the norm of the node matrix, and with it the
    number of squarings in the matrix exponential, whatever the seed.
    Dyadic values convert to mpf exactly.
    """
    half = size // 2
    if pattern == "spread":
        mags = [F(1)] + [F(j, 64) for j in rng.sample(range(1, 64), half - 1)]
    elif pattern == "clustered":
        mags = [F(1)] + [1 - F(j, 1024) for j in rng.sample(range(1, 16), half - 1)]
    else:
        repeat = max(2, half // 2)
        mags = [F(1)] * repeat + [F(j, 64) for j in rng.sample(range(1, 64),
                                                               half - repeat)]
    tangents = [F(1, 2)] + [F(rng.randint(-32, 32), 64) for _ in range(half - 1)]
    eig = mags + [-x for x in mags] + [F(0)] * (size % 2)
    tan = tangents + [-w for w in tangents] + [F(0)] * (size % 2)
    order = list(range(size))
    rng.shuffle(order)
    return tuple(eig[i] for i in order), tuple(tan[i] for i in order)


def _build_numeric(batch, rng, docdir):
    for i, (n, degrees, pattern, dual, bits) in enumerate(NUMERIC_JOBS):
        ci = CompleteIntersectionSpec.create(n, degrees)
        batch.jobs.append(_numeric_job(
            rng, f"{i:02d}-n{n}-{pattern}-{'dual' if dual else 'mpf'}-{bits}",
            ci, pattern, dual, bits))
    ci = CompleteIntersectionSpec.create(3, (2,))
    for dual in (False, True):
        for bits in (256, 512):
            batch.warmup.append(_numeric_job(rng, "warmup", ci, "spread", dual,
                                             bits))


def _numeric_job(rng, name, ci, pattern, dual, bits):
    eig, tan = _pinned(rng, ci.ambient_dim + 1, pattern)
    weights = tuple(F(rng.randint(-64, 64), 64) for _ in ci.degrees)
    w_tan = tuple(F(rng.randint(-64, 64), 64) for _ in ci.degrees)
    fld = DiagonalField(eig, weights)
    with mpmath.workprec(bits + 64):
        if dual:
            inputs = ([Dual(to_mpf(x), to_mpf(w)) for x, w in zip(eig, tan)],
                      [Dual(to_mpf(a), to_mpf(b)) for a, b in zip(weights, w_tan)])
        else:
            inputs = ([to_mpf(x) for x in eig], [to_mpf(a) for a in weights])
    expect = {"direction": DiagonalField(tan, w_tan)} if dual else {}
    return Job(name, "f_numeric", ci, fld, bits, inputs=inputs, expect=expect)


# --- soliton ----------------------------------------------------------------

def _build_soliton(batch, rng, docdir):
    # The varieties are fixed, not seeded: Newton's path, and with it the
    # f_numeric call count, must repeat exactly from run to run.
    for name, ci in (("fermat-r0", FERMAT_CUBIC), ("cubic-r1", CUBIC),
                     ("quadrics-r2", QUADRICS), ("p4cubic-r3", P4_CUBIC)):
        batch.jobs.append(_soliton_job(batch, docdir, name, ci))
    batch.warmup.append(_soliton_job(batch, docdir, "warmup-conic", CONIC))


def _soliton_job(batch, docdir, name, ci):
    return _cli_job(batch, docdir, f"{name}/soliton", "soliton", ci,
                    DiagonalField.zero(ci), "soliton", bits=SOLITON_BITS,
                    trivial=ci is FERMAT_CUBIC, tol=1e-10)


# --- quantize ---------------------------------------------------------------

def _build_quantize(batch, rng, docdir):
    ladders = [(name, ci, fld, K_LADDER, {"closed_form": closed})
               for name, (ci, fld, closed) in GOLDEN.items()]
    for n, degrees in QUANTIZE_RANDOM:
        ci = CompleteIntersectionSpec.create(n, degrees)
        fld = DiagonalField(tuple(_traceless(rng, [], n, 6, 4)),
                            tuple(_rational(rng, 6, 4) for _ in degrees))
        levels = tuple(k for k in K_LADDER if k * ci.fano_index <= 512)
        ladders.append((f"random-n{n}", ci, fld, levels, {}))
    for name, ci, fld, levels, extra in ladders:
        for t in (F(0), QUANTIZE_T):
            for k in levels:
                batch.jobs.append(_cli_job(
                    batch, docdir, f"{name}/k{k}-t{t}", "quantize", ci, fld,
                    "quantize", "--k", k, "--t", t, k=k, t=t,
                    ladder=f"{name}-t{t}", last=k == levels[-1], **extra))
    ci, fld, closed = GOLDEN["cubic"]
    for t in (F(0), F(1, 2)):
        batch.warmup.append(_cli_job(
            batch, docdir, f"warmup/k16-t{t}", "quantize", ci, fld, "quantize",
            "--k", 16, "--t", t, k=16, t=t, ladder=f"warmup-{t}", last=True,
            closed_form=closed))


BUILDERS = {"exact": _build_exact, "numeric-twin": _build_numeric,
            "soliton": _build_soliton, "quantize": _build_quantize}
