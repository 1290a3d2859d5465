"""The benchmark's workloads: seeded inputs, one job per input, and its check.

Every workload builds its whole input pool from the seed when it is
constructed.  `job(inp, tr)` then calls conversekit's public functions on
one input and raises CheckFailed if any output is wrong.  Calls go through
`tr.call(name, fn, *args)`, which records a span in traced runs and is a
plain call otherwise; probe calls (see spans.py) run only when tracing.

Why these five, and what each stresses:

- soundness: tier-1's hottest path (criteria 01/09, the dense-grid test),
  call-bound in converse/divergence on families with M <= 6, K <= 12.
- wide: the same layers on M = 16, K = 4096, so array-bound; a batched
  kernel pays its bandwidth and memory cost here.
- quadrature: the only workload dominated by the oracle's adaptive Simpson
  (criterion 03, `verify divergence`, the quadrature test).
- packing: the packing constructors, certificates and the power iteration.
- sweep: only the CLI and the application closed forms; the converse and
  oracle layers are bypassed, so their speed-ups must not move it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from conversekit import applications, cli, converse, divergence, oracle, packing, suites
from spans import NullTracer

ROOT = Path(__file__).resolve().parent.parent

# A floor may exceed the exact Bayes error by at most this much, as in
# `verify soundness` and acceptance criterion 01.
SOUND_TOL = 1e-9

# The harness calls lambda* a boundary optimum when it sits this close to
# an end of lambda_range in log lambda.  The library's own flag uses 1e-12,
# which golden section does not reach, so the two can disagree.
BOUNDARY_LOG_TOL = 1e-9


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


def _check(ok, what):
    if not ok:
        raise CheckFailed(what)


def _family_probe(tr, family, lam):
    """Time the layers under strong_converse_bound on the same family and order."""
    tr.call("converse.ChannelFamily.divergences", family.divergences, lam)
    ref = tr.call("converse.ChannelFamily.reference_pmf", family.reference_pmf, lam)
    for cond in family.conditionals:
        try:
            tr.call("divergence.renyi_discrete", divergence.renyi_discrete, cond, ref, lam)
        except divergence.AbsoluteContinuityError:
            pass
        tr.count("divergence.renyi_discrete.cells", cond.support_size)


def _bound(tr, family, lam):
    rep = tr.call("converse.strong_converse_bound", converse.strong_converse_bound, family, lam)
    if tr.on:
        tr.count("converse.strong_converse_bound.vacuous", rep.eps_lower <= 0.0)
        tr.call("probe.strong_converse_bound", _family_probe, tr, family, lam, probe=True)
    return rep


def _optimize(tr, family):
    rep = tr.call("converse.optimize_lambda", converse.optimize_lambda, family)
    if tr.on:
        lo, hi = rep.params["lambda_range"]
        x = math.log(rep.lambda_star)
        at_edge = x - math.log(lo) <= BOUNDARY_LOG_TOL or math.log(hi) - x <= BOUNDARY_LOG_TOL
        tr.count("converse.optimize_lambda.boundary", at_edge)
        tr.count("converse.optimize_lambda.boundary_flag", rep.params["lambda_at_boundary"])
    return rep


def _each(fn, items):
    for item in items:
        fn(item)


def _interleave(*lists):
    """The items of all lists, each list's spread evenly over the result."""
    keyed = [((j + 0.5) / len(items), k, item) for k, items in enumerate(lists)
             for j, item in enumerate(items)]
    return [item for _, _, item in sorted(keyed, key=lambda t: t[:2])]


class Workload:
    """Input pool plus job; subclasses fill `inputs` from the seed."""

    # module prefixes of the layer that should dominate this workload's job time
    named_layers: tuple = ()
    # gauge.PARTS that do the same kind of work as this workload's jobs
    gauge_parts: tuple = ()
    # job_tail_ms is the latency at this percentile: the highest of 75, 80
    # and 90 that keeps ten jobs beyond it in a 20 s run on a slow host and
    # spread by less than 0.08 over ten seeds (README.md has the figures)
    tail_percentile: int = 90

    def golden_check(self):
        """A check made once before timing: True or False, or None if there is none."""
        return None

    def report(self) -> dict:
        """Extra facts for the run report."""
        return {}


class Soundness(Workload):
    """One job: one small random family, each q choice, grid + optimizer + gammas."""

    named_layers = ("converse.",)
    # Python calls around numpy on a dozen outcomes
    gauge_parts = ("calls", "small_arrays")
    LAMBDA_GRID = [float(x) for x in np.geomspace(0.05, 8.0, 20)]
    # A job's cost is set mostly by M (about 30 ms at M = 2, 115 ms at M = 6)
    # and then by whether the family is a product with K > 12.  Left to the
    # draw, the mix of those kinds in a pool moves the median by about 5%
    # from seed to seed.  So the pool keeps a fixed number of each kind, in
    # the proportions random_discrete_family draws them, and jobs cycle
    # through M; only the pmfs come from the seed.
    CODEWORDS = range(2, 7)
    PER_M = {False: 37, True: 13}  # families with K <= 12, and with K > 12

    def __init__(self, seed, tr):
        rng = np.random.default_rng(seed)
        kinds = {(m, big): [] for m in self.CODEWORDS for big in self.PER_M}
        while any(len(fams) < self.PER_M[big] for (_, big), fams in kinds.items()):
            family = tr.call("suites.random_discrete_family", suites.random_discrete_family, rng)
            big = family.conditionals[0].support_size > 12
            fams = kinds[family.m_codewords, big]
            if len(fams) < self.PER_M[big]:
                fams.append(family.conditionals)
        by_m = [_interleave(kinds[m, False], kinds[m, True]) for m in self.CODEWORDS]
        self.inputs = [fams[j] for j in range(len(by_m[0])) for fams in by_m]

    def job(self, conds, tr):
        exact = tr.call("oracle.exact_bayes_error", oracle.exact_bayes_error, conds)
        limit = exact + SOUND_TOL
        for q in converse.Q_CHOICES:
            family = converse.ChannelFamily(conds, q)
            for lam in self.LAMBDA_GRID:
                rep = _bound(tr, family, lam)
                _check(rep.eps_lower <= limit, f"q={q} lam={lam:.3g} floor above exact")
            best = _optimize(tr, family)
            _check(best.eps_lower <= limit, f"q={q} optimized floor above exact")
            for gamma in (0.5, 1.0, float(family.m_codewords)):
                eps = tr.call(
                    "converse.variational_bound", converse.variational_bound, family, 1.0, gamma
                )
                _check(eps <= limit, f"q={q} gamma={gamma:.3g} floor above exact")


class Wide(Workload):
    """One job: one M = 16, K = 4^6 family at one q choice; q cycles per job."""

    named_layers = ("converse.",)
    # numpy over 16 x 4096 arrays, plus per-order numpy calls
    gauge_parts = ("small_arrays", "big_arrays")
    tail_percentile = 80
    POOL = 24
    CODEWORDS = 16
    LETTERS = 4
    POWER = 6
    ZERO_LETTER_P = 0.2

    def __init__(self, seed, tr):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.POOL):
            conds = tuple(
                divergence.iid_product_pmf(self._letters(rng), self.POWER)
                for _ in range(self.CODEWORDS)
            )
            self.inputs.extend((conds, q) for q in converse.Q_CHOICES)

    def _letters(self, rng):
        w = rng.gamma(1.0, 1.0, size=self.LETTERS)
        w[rng.random(self.LETTERS) < self.ZERO_LETTER_P] = 0.0
        if not w.any():
            w[int(rng.integers(self.LETTERS))] = 1.0
        return divergence.DiscretePmf(w / w.sum())

    def job(self, inp, tr):
        conds, q = inp
        family = converse.ChannelFamily(conds, q)
        best = _optimize(tr, family)
        rep = _bound(tr, family, best.lambda_star)
        exact = tr.call("oracle.exact_bayes_error", oracle.exact_bayes_error, conds)
        _check(best.eps_lower <= exact + SOUND_TOL, f"q={q} optimized floor above exact")
        _check(rep.eps_lower <= exact + SOUND_TOL, f"q={q} floor at lambda* above exact")
        _check(
            abs(rep.eps_raw - best.eps_raw) <= 1e-12 * max(1.0, abs(best.eps_raw)),
            f"q={q} bound at lambda* disagrees with optimize_lambda",
        )


class Quadrature(Workload):
    """One job: a criterion-03 Gaussian pair by quadrature, plus two m = 16 hypercube integrals."""

    named_layers = ("oracle.",)
    # adaptive Simpson in plain Python; one reading of `calls` is under a
    # millisecond and too noisy on its own
    gauge_parts = ("calls",) * 4
    tail_percentile = 75
    POOL = 256
    CELLS = 16
    REL_TOL = 1e-6
    SQ_TOL = 1e-9

    def __init__(self, seed, tr):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(self.POOL):
            pair = divergence.GaussianShiftPair(
                shift_sq=float(rng.uniform(0.01, 4.0)),
                sigma_sq=float(rng.uniform(0.25, 4.0)),
            )
            lam = float(rng.uniform(0.05, 3.0))
            cube = oracle.HypercubeDensityFamily(m=self.CELLS, c=float(rng.uniform(0.1, 0.5)))
            tau_a = rng.choice([-1, 1], size=self.CELLS)
            tau_b = tau_a.copy()
            flips = rng.random(self.CELLS) < 0.5
            flips[int(rng.integers(self.CELLS))] = True
            tau_b[flips] *= -1
            self.inputs.append((pair, lam, cube, tau_a, tau_b))

    def job(self, inp, tr):
        pair, lam, cube, tau_a, tau_b = inp
        closed = tr.call("divergence.renyi_gaussian_shift", divergence.renyi_gaussian_shift, pair, lam)
        quad = tr.call("oracle.renyi_gaussian_quadrature", oracle.renyi_gaussian_quadrature, pair, lam)
        rel = abs(closed - quad) / abs(closed)
        tr.peak("oracle.quadrature.worst_rel_err", rel)
        _check(rel <= self.REL_TOL, f"quadrature relative error {rel:.3e}")
        sq = tr.call("oracle.density_sq_integral", oracle.density_sq_integral, cube, tau_a)
        _check(abs(sq - (1.0 + cube.sq_integral_excess)) <= self.SQ_TOL, "density_sq_integral off")
        hel = tr.call(
            "oracle.hellinger_sq_distance", oracle.hellinger_sq_distance, cube, tau_a, tau_b
        )
        _check(math.isfinite(hel) and hel > 0.0, "hellinger_sq_distance not positive")


class Packing(Workload):
    """One job: a seeded GV code, a sparse packing, and a near-degenerate operator norm."""

    named_layers = ("packing.",)
    # Python loops, small numpy calls and a power iteration
    gauge_parts = ("calls", "small_arrays", "matvec")
    tail_percentile = 80
    POOL = 256
    GV = (12, 4)
    SPARSE = (256, 4, 64)
    MATRICES = 8
    DIM = 256
    EIG_GAP = 1e-2
    NORM_RTOL = 1e-8

    def __init__(self, seed, tr):
        rng = np.random.default_rng(seed)
        mats = []
        for _ in range(self.MATRICES):
            basis, _ = np.linalg.qr(rng.standard_normal((self.DIM, self.DIM)))
            top = rng.choice([-1.0, 1.0])
            second = rng.choice([-1.0, 1.0]) * (1.0 - self.EIG_GAP)
            rest = rng.uniform(-0.9, 0.9, size=self.DIM - 2)
            sym = (basis * np.concatenate([[top, second], rest])) @ basis.T
            sym = (sym + sym.T) / 2.0
            mats.append((sym, float(np.max(np.abs(np.linalg.eigvalsh(sym))))))
        seeds = rng.integers(0, 2**31, size=self.POOL)
        self.inputs = [(int(s), mats[i % self.MATRICES]) for i, s in enumerate(seeds)]
        m, d_min = self.GV
        self.gv_floor = math.ceil(2**m / sum(math.comb(m, j) for j in range(d_min)))

    def _certify(self, tr, pset):
        cert = tr.call("packing.verify_packing", packing.verify_packing, pset)
        size = len(pset.elements)
        tr.count("packing.verify_packing.pairs", size * (size - 1) // 2)
        _check(cert.passed and cert.min_distance >= pset.d_min, f"{pset.metric} certificate failed")

    def job(self, inp, tr):
        seed, (sym, exact_norm) = inp
        m, d_min = self.GV
        book = tr.call("packing.gv_greedy", packing.gv_greedy, m, d_min, "seeded_random", seed)
        tr.count("packing.gv_greedy.codewords", book.size)
        self._certify(tr, book.to_packing_set())
        _check(book.size >= self.gv_floor, f"gv size {book.size} below floor {self.gv_floor}")

        n, k, target = self.SPARSE
        sparse = tr.call("packing.cs_random_packing", packing.cs_random_packing, n, k, target, seed)
        _check(sparse.size == target, "sparse packing short")
        _check(math.isfinite(sparse.beta_hat) and sparse.beta_hat >= 0.0, "beta_hat invalid")
        self._certify(tr, sparse.to_packing_set())

        norm = tr.call("packing.operator_norm", packing.operator_norm, sym)
        rel = abs(norm - exact_norm) / exact_norm
        tr.peak("packing.operator_norm.rel_err", rel)
        _check(rel <= self.NORM_RTOL, f"operator_norm relative error {rel:.3e}")


class Sweep(Workload):
    """One job: one in-process `conversekit sweep <app>` of 2000 log-spaced n values.

    The base flags of each app are those of its golden report.  The app
    cycles density/active/cs; each (app, range) argv recurs, and its CSV
    body must be byte-identical to its first run.
    """

    named_layers = ("cli.", "applications.")
    # closed forms and CSV formatting in plain Python
    gauge_parts = ("calls", "text")
    tail_percentile = 80
    APPS = ("density", "active", "cs")
    RANGES_PER_APP = 2
    POINTS = 2000
    # log10 n ranges (from-range, to-range) that keep every config valid
    LOG10_N = {"density": ((2.0, 5.0), (9.0, 15.0)),
               "active": ((2.0, 5.0), (7.0, 12.0)),
               "cs": ((3.0, 4.5), (8.0, 40.0))}
    CONFIG_TYPES = {
        "density": applications.DensityConfig,
        "active": applications.ActiveConfig,
        "cs": applications.CsConfig,
    }

    def __init__(self, seed, tr):
        rng = np.random.default_rng(seed)
        self.golden = {app: self._golden(app) for app in self.APPS}
        self.inputs = []
        for _ in range(self.RANGES_PER_APP):
            for app in self.APPS:
                (a0, a1), (b0, b1) = self.LOG10_N[app]
                start = f"{10 ** rng.uniform(a0, a1):.6g}"
                stop = f"{10 ** rng.uniform(b0, b1):.6g}"
                argv = ["sweep"] + self.golden[app]["argv"][1:] + [
                    "--vary", "n", "--from", start, "--to", stop, "--points", str(self.POINTS)
                ]
                self.inputs.append({"app": app, "argv": argv, "sha256": None})

    @staticmethod
    def _golden(app):
        text = (ROOT / "docs" / "golden" / f"{app}.json").read_text(encoding="utf-8")
        manifest = json.loads(text)["manifest"]
        argv = list(manifest["command"])
        if "--out" in argv:
            at = argv.index("--out")
            del argv[at : at + 2]
        return {"argv": argv, "config": manifest["config"], "text": text}

    @staticmethod
    def _run_cli(tr, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call("cli.main", cli.main, argv)
        return code, buf.getvalue()

    def golden_check(self):
        """`bound <app>` with the golden flags reproduces each golden report byte for byte."""
        marker = '\n  "report": '
        for app, gold in self.golden.items():
            code, text = self._run_cli(NullTracer(), gold["argv"])
            if code != 0 or marker not in text:
                return False
            if text[text.index(marker):] != gold["text"][gold["text"].index(marker):]:
                return False
        return True

    def _probe(self, tr, inp):
        """compute_bounds over the configs the sweep evaluated, in one span."""
        argv = inp["argv"]
        lo = math.log(float(argv[argv.index("--from") + 1]))
        hi = math.log(float(argv[argv.index("--to") + 1]))
        base = self.golden[inp["app"]]["config"]
        make = self.CONFIG_TYPES[inp["app"]]
        last = self.POINTS - 1
        configs = [make(**{**base, "n": math.exp(lo + (hi - lo) * i / last)}) for i in range(self.POINTS)]
        tr.call("applications.compute_bounds", _each, applications.compute_bounds, configs)
        tr.count("applications.compute_bounds.calls", len(configs))

    def job(self, inp, tr):
        code, text = self._run_cli(tr, inp["argv"])
        _check(code == 0, f"sweep exited {code}")
        head, _, body = text.partition("\n")
        _check(head.startswith("# manifest: "), "missing manifest line")
        _check(body.count("\n") == self.POINTS + 1, "wrong CSV row count")
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if inp["sha256"] is None:
            inp["sha256"] = digest
        _check(digest == inp["sha256"], "CSV body differs from the first run of this argv")
        tr.count("cli.bytes_out", len(text.encode("utf-8")))
        if tr.on:
            tr.call("probe.compute_bounds", self._probe, tr, inp, probe=True)

    def report(self):
        return {"csv_body_sha256": {" ".join(i["argv"]): i["sha256"] for i in self.inputs}}


WORKLOADS = {
    "soundness": Soundness,
    "wide": Wide,
    "quadrature": Quadrature,
    "packing": Packing,
    "sweep": Sweep,
}
