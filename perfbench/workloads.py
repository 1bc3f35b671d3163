"""The four benchmark workloads: their items, their timed loop and their checks.

Items are plain JSON data made in the parent process from the seed
(`make_items`), so that making them fills none of loomfold's caches in the
worker.  The worker turns them into library arguments (`prepare`) before
any tracing starts, then runs them as a closed loop with one caller
(`run`), timing each item and checking its result outside the timed part.

    verify_all   `loomfold verify-all --degree 12` as shipped; fixed.
    rank_sweep   the oracle cells over all_affine_types(12) and the fold
                 identity over twisted_types(12); the seed permutes cell order.
    series_deep  folded parent series vs twisted series at D=20 over
                 twisted_types(4); the seed permutes cell order.
    cli_mix      single CLI queries over all_affine_types(8); the seed draws
                 nodes, options and order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time

from loomfold import cartan, characters, cli, folding, pbw, weyl

WORKLOADS = ("verify_all", "rank_sweep", "series_deep", "cli_mix")

VERIFY_ARGV = ("verify-all", "--degree", "12")
VERIFY_SUMMARY = "verify-all: 495/495 cells passed"

# The command variants of cli_mix, each asked QUERIES_PER_VARIANT times per
# run.  The repository holds no usage data, so the split is synthetic: every
# variant that the workload covers gets the same count, and every seed asks
# for the same kinds of work.
CLI_VARIANTS = (
    ("cartan", None), ("inversions", None), ("fold-verify", None),
    ("char", 8), ("char", 12), ("fold-check", 8), ("fold-check", 12),
    ("pbw-graph", "json"), ("pbw-graph", "dot"), ("eta", None), ("serre-check", None),
)
QUERIES_PER_VARIANT = 36

_clock = time.perf_counter


# ---------------------------------------------------------------- items


def make_items(workload: str, seed: int) -> list:
    """The JSON items of one workload at the benchmark's size."""
    if workload == "verify_all":
        return verify_all_items()
    if workload == "rank_sweep":
        return rank_sweep_items(seed)
    if workload == "series_deep":
        return series_deep_items(seed)
    if workload == "cli_mix":
        return cli_mix_items(seed)
    raise ValueError(f"unknown workload {workload!r}")


def verify_all_items(argv=VERIFY_ARGV) -> list:
    return [list(argv)]


def rank_sweep_items(seed: int, max_n: int = 12) -> list:
    cells = [["oracle", str(at), s] for at in cartan.all_affine_types(max_n)
             for s in range(1, at.n + 1)]
    cells += [["fold", str(at), s] for at in cartan.twisted_types(max_n)
              for s in range(1, at.n + 1)]
    random.Random(seed).shuffle(cells)
    return cells


def series_deep_items(seed: int, max_n: int = 4, degree: int = 20) -> list:
    cells = [[str(at), s, degree] for at in cartan.twisted_types(max_n)
             for s in range(1, at.n + 1)]
    random.Random(seed).shuffle(cells)
    return cells


def _eta_ok(at) -> bool:
    return at.r == 2 and ((at.family == "A" and at.N % 2 == 1) or at.family == "D")


def _quotas(count: int, types: list) -> list[tuple]:
    """Split `count` queries over `types` by Zipf weight 1/(k+1) in list order.

    The skew is synthetic, for want of usage data; it makes queries share
    cache state.  Largest-remainder rounding gives every seed the same
    number of queries per type, so the amount of work stays the same.
    """
    weights = [1 / (k + 1) for k in range(len(types))]
    total = sum(weights)
    exact = [count * w / total for w in weights]
    quota = [int(x) for x in exact]
    by_remainder = sorted(range(len(types)), key=lambda k: quota[k] - exact[k])
    for k in by_remainder[:count - sum(quota)]:
        quota[k] += 1
    return [(t, q) for t, q in zip(types, quota) if q]


def cli_mix_items(seed: int, max_n: int = 8, per_variant: int = QUERIES_PER_VARIANT) -> list:
    """Valid single queries; the seed draws nodes, options and the order."""
    rng = random.Random(seed)
    # small types are the popular ones; stable sort keeps table order within a rank
    types = sorted(cartan.all_affine_types(max_n), key=lambda t: t.n)
    twisted = [t for t in types if t.r > 1]
    minuscule = {t: pbw.minuscule_nodes(cartan.build_affine(t)) for t in types}
    eligible = {
        "cartan": types, "inversions": types, "char": types,
        "fold-verify": twisted, "fold-check": twisted,
        "pbw-graph": [t for t in types if minuscule[t]],
        "eta": [t for t in twisted if _eta_ok(t)], "serre-check": [None],
    }
    queries = []
    for command, option in CLI_VARIANTS:
        for at, quota in _quotas(per_variant, eligible[command]):
            nodes = list(minuscule[at] if command == "pbw-graph" else
                         range(1, at.n + 1) if at is not None else [0])
            rng.shuffle(nodes)
            for k in range(quota):
                queries.append(_query(command, option, at, nodes[k % len(nodes)], rng))
    rng.shuffle(queries)
    return queries


def _query(command: str, option, at, s: int, rng: random.Random) -> list[str]:
    if command == "serre-check":
        return [command]
    argv = ["char" if command == "fold-check" else command, "--type", str(at)]
    if command in ("inversions", "char", "fold-check", "pbw-graph"):
        argv += ["--node", str(s)]
    if command in ("char", "fold-check"):
        argv += ["--degree", str(option)]
    if command == "fold-check":
        argv.append("--fold-check")
    if command == "fold-verify":
        argv.append("--all")
    if command == "pbw-graph":
        argv += ["--format", option]
    if command == "eta":
        argv += ["--o", str(rng.choice((1, -1)))]
    return argv


# ---------------------------------------------------------------- running


class Outcome:
    """Times, checks and result hashes of one worker run."""

    def __init__(self):
        self.wall_s = 0.0
        self.queries_ms: list[float] = []    # per call the caller waits on
        self.items_ms: list[float] = []      # per cell or query, for the slowest list
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: list[str] = []
        self.bytes_out = 0

    def item(self, label: str, seconds: float, ok: bool, detail: str = "",
             query: bool = True) -> None:
        self.items_ms.append(seconds * 1e3)
        if query:
            self.queries_ms.append(seconds * 1e3)
        self.labels.append(label)
        self.check(ok, f"{label}: {detail}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def digest(self) -> str:
        """Order-independent: the hash of the sorted per-item hashes."""
        return hashlib.sha256("\n".join(sorted(self.hashes)).encode()).hexdigest()

    def slowest(self) -> list:
        """The 10 slowest items, with their times in ms."""
        order = sorted(range(len(self.labels)), key=lambda i: -self.items_ms[i])
        return [[self.labels[i], round(self.items_ms[i], 3)] for i in order[:10]]


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def prepare(workload: str, items: list) -> list:
    """Turn JSON items into library arguments, touching no cache."""
    if workload == "rank_sweep":
        return [(suite, cli.parse_type(t), s) for suite, t, s in items]
    if workload == "series_deep":
        return [(cli.parse_type(t), s, degree) for t, s, degree in items]
    return items


def run(workload: str, items: list, tracer=None, expected_digest: str | None = None) -> Outcome:
    """Run the prepared items once, timed, and check every result.

    With `expected_digest`, the run's digest must equal it; a mismatch is
    one failed item.
    """
    runner = {"verify_all": _verify_all, "rank_sweep": _rank_sweep,
              "series_deep": _series_deep, "cli_mix": _cli_mix}[workload]
    res = Outcome()
    runner(items, res, tracer)
    if expected_digest is not None:
        got = res.digest()
        res.check(got == expected_digest, f"digest {got} != stored {expected_digest}")
    if tracer is not None:
        tracer.counts["cli.bytes_out"] = res.bytes_out
    return res


class _LineClock(io.StringIO):
    """stdout stand-in that timestamps every completed line, as a reader of
    the stream would see it, and moves the tracer to the next item."""

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        for _ in range(s.count("\n")):
            self.stamps.append(_clock())
            if self.tracer is not None:
                self.tracer.item += 1
        return n


def _verify_all(items, res: Outcome, tracer) -> None:
    for argv in items:
        out = _LineClock(tracer)
        if tracer is not None:
            tracer.item = 0
        t0 = _clock()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except Exception as exc:          # a crash is a failed item, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
        t1 = _clock()
        res.wall_s += t1 - t0
        res.queries_ms.append((t1 - t0) * 1e3)
        lines = out.getvalue().splitlines()
        prev = t0
        for line, stamp in zip(lines, out.stamps):
            if line.startswith(("PASS ", "FAIL ")):
                res.item(line[5:], stamp - prev, line.startswith("PASS "), "FAIL", query=False)
            prev = stamp
        res.hashes.extend(_hash(line) for line in lines)
        res.bytes_out += len(out.getvalue().encode())
        res.check(code == 0 and lines[-1:] == [VERIFY_SUMMARY],
                  f"{' '.join(argv)}: exit {code}, last line {lines[-1:]}")


def _rank_sweep(items, res: Outcome, tracer) -> None:
    for idx, (suite, at, s) in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        detail = ""
        result = None
        t0 = _clock()
        try:
            d = cartan.build_affine(at)
            if suite == "oracle":
                word, tau = weyl.alcove_factorize(d, weyl.translation_minus_lambda(d, s))
                betas = weyl.inversion_set_from_word(d, word)
                closed = weyl.inversion_set_closed_form(d, s)
                ok = (set(betas) == set(closed) and len(word) == len(closed)
                      and word[0] == s and word[-1] == tau[0])
                result = (word, tau, closed)
            else:
                result = folding.verify_fold_identity(d, s)
                ok = True
        except Exception as exc:          # a crash is a failed item, not a dead benchmark
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        t1 = _clock()
        res.wall_s += t1 - t0
        label = f"{suite} {at} s={s}"
        res.item(label, t1 - t0, ok, detail)
        if suite == "fold" and result is not None:
            result = [(e.beta, e.fiber, e.lhs, e.rhs) for e in result]
        res.hashes.append(_hash((label, result)))


def _series_deep(items, res: Outcome, tracer) -> None:
    for idx, (at, s, degree) in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        detail = ""
        parent = twisted = None
        t0 = _clock()
        try:
            d = cartan.build_affine(at)
            om = folding.sigma_for(d)
            parent = characters.product_from_exponents(
                folding.parent_char_exponents(om, s), om.parent_rank, degree)
            folded = characters.fold_series(parent, om, degree)
            twisted = characters.char_product(d, s, degree)
            rep = characters.series_equal(folded, twisted, degree)
            ok, detail = rep.equal, str(rep.witness or "")
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        t1 = _clock()
        res.wall_s += t1 - t0
        label = f"series {at} s={s} D={degree}"
        res.item(label, t1 - t0, ok, detail)
        res.hashes.append(_hash((label, [None if x is None else sorted(x.terms.items())
                                         for x in (parent, twisted)])))


def _cli_ok(argv: list[str], code, text: str) -> bool:
    """The query's own verdict fields, as a caller of the CLI would read them."""
    if code != 0:
        return False
    if argv[0] == "pbw-graph" and argv[-1] == "dot":
        return text.startswith("digraph")
    doc = json.loads(text)
    if argv[0] == "inversions":
        return doc["agree"] is True
    if argv[0] in ("fold-verify", "serre-check"):
        return doc["ok"] is True
    if argv[0] == "char" and "--fold-check" in argv:
        return doc["fold_check"]["equal"] is True
    if argv[0] == "eta":
        return doc["cancellation_ok"] is True
    return True


def _cli_mix(items, res: Outcome, tracer) -> None:
    for idx, argv in enumerate(items):
        if tracer is not None:
            tracer.item = idx
        out = io.StringIO()
        t0 = _clock()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(list(argv))
        except Exception as exc:          # a crash is a failed query, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
        t1 = _clock()
        res.wall_s += t1 - t0
        text = out.getvalue()
        res.bytes_out += len(text.encode())
        try:
            ok = _cli_ok(argv, code, text)
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            code = f"{code}; unreadable output: {exc}"
        res.item(" ".join(argv), t1 - t0, ok, f"exit {code}")
