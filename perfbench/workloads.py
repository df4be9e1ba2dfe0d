"""The three benchmark workloads.

Each workload is a closed loop with one caller: :meth:`prepare` builds item
``i`` untimed, :meth:`call` is the timed call into btensor, and
:meth:`check` verifies the outcome afterwards.  Items repeat in a fixed
cycle of input shapes, with entries and seeds drawn per item from the run
seed, and a run always ends on a cycle boundary so every run measures the
same mix.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks
import inputs

SEARCH_TRIALS = 2  # even: both samplers of conjecture_search run in each item
SEARCH_TOL = 1e-6
ORACLE_STARTS = 64


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``btensor.cli.main(argv)`` with its report captured; ``cli.main`` is
    looked up at call time so a traced run sees the wrapper."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def same_cli_outcome(a, b) -> bool:
    """Same exit code and a byte-identical report apart from its timestamp."""
    return a[0] == b[0] and checks.without_timestamp(a[1]) == checks.without_timestamp(b[1])


def _report(text: str) -> dict:
    return json.loads(text) if text.strip() else {}


class SearchN2:
    name = "search-n2"
    why = ("the search-b0 CLI path of criterion 7: n=2 oracle solves made of "
           "~1,000 tiny form evaluations each, so Python per-call overhead dominates")
    cycle = 1

    def __init__(self, btensor, seed: int, workdir: Path):
        self.cli = btensor.cli
        self.seed = seed

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        run_cli(self.cli, self._argv(self._item_seed(-1)))

    def _item_seed(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, 1, i + 1]).generate_state(1)[0] >> 1)

    def _argv(self, item_seed: int) -> list[str]:
        return ["search-b0", "--order", "4", "--dim", "2", "--trials", str(SEARCH_TRIALS),
                "--seed", str(item_seed)]

    def prepare(self, i: int):
        return self._item_seed(i)

    def call(self, item_seed):
        return run_cli(self.cli, self._argv(item_seed))

    def check(self, i: int, item_seed, outcome) -> list[str]:
        code, text = outcome
        return checks.check_search(code, _report(text), SEARCH_TRIALS, item_seed, SEARCH_TOL)

    same = staticmethod(same_cli_outcome)


# (m, n, kind, normalization); kind is "pd" or "indef", with "-sym" or
# "-raw" (non-symmetric, so the oracle symmetrizes).  Sizes run from
# n^m = 64 to 4,096.  Twenty small items keep a run near 100 items; the
# three m=6 items and the n^m = 4,096 one are the slowest sixth, so the p90
# latency falls inside one shape (m=6, n=3) rather than between two.
ORACLE_CYCLE = (
    (3, 4, "indef-raw", "l2"),
    (4, 3, "pd-sym", "l2"),
    (4, 3, "indef-raw", "lm"),
    (3, 5, "indef-sym", "l2"),
    (4, 3, "pd-raw", "lm"),
    (6, 3, "pd-sym", "l2"),
    (3, 4, "indef-sym", "l2"),
    (4, 3, "pd-sym", "lm"),
    (4, 4, "pd-sym", "l2"),
    (3, 4, "indef-raw", "l2"),
    (4, 3, "pd-raw", "l2"),
    (3, 5, "indef-raw", "l2"),
    (6, 3, "indef-raw", "l2"),
    (4, 3, "indef-sym", "l2"),
    (3, 4, "indef-sym", "l2"),
    (4, 4, "indef-raw", "lm"),
    (4, 3, "pd-sym", "lm"),
    (3, 5, "indef-raw", "l2"),
    (6, 3, "pd-raw", "l2"),
    (4, 3, "pd-raw", "lm"),
    (3, 4, "indef-raw", "l2"),
    (3, 6, "indef-sym", "l2"),
    (4, 3, "indef-sym", "lm"),
    (4, 8, "pd-raw", "l2"),
)


class OracleDense:
    name = "oracle-dense"
    why = ("library sphere_minimize at n>=3 over n^m from 64 to 4,096: batched "
           "contraction and the Armijo loop dominate, as in criteria 5 and 6")
    cycle = len(ORACLE_CYCLE)

    def __init__(self, btensor, seed: int, workdir: Path):
        self.bt = btensor
        self.seed = seed

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        for norm in ("l2", "lm"):
            self.call(self._make(-1, (4, 3, "pd-raw", norm)))

    def _make(self, i: int, spec):
        m, n, kind, norm = spec
        rng = inputs.rng_for(self.seed, 2, i + 1)
        if kind.startswith("pd"):
            data = inputs.pd_tensor(m, n, rng)
            if kind == "pd-raw":
                data = inputs.antisymmetric_shift(data, rng)
        else:
            data = rng.normal(size=(n,) * m)
            if kind == "indef-sym":
                data = inputs.reference_symmetrize(data)
        oracle_seed = int(rng.integers(2**31))
        return self.bt.Tensor(m, n, data), data, oracle_seed, norm, kind.startswith("pd")

    def prepare(self, i: int):
        return self._make(i, ORACLE_CYCLE[i % self.cycle])

    def call(self, item):
        T, _, oracle_seed, norm, _ = item
        return self.bt.sphere_minimize(T, starts=ORACLE_STARTS, seed=oracle_seed,
                                       normalization=norm)

    def check(self, i: int, item, result) -> list[str]:
        _, data, _, norm, pd = item
        return checks.check_oracle(data, result, norm, inputs.rng_for(self.seed, 3, i + 1), pd)

    @staticmethod
    def same(a, b) -> bool:
        return a == b


# (kind, m, n): small files (n^m <= 256) for every ladder rung and the
# non-member cases, then three large ones, so a seventh of the commands
# parse, hash and dump megabytes.
CERTIFY_FILES = (
    ("b", 4, 2), ("b", 4, 4), ("b", 6, 2), ("b", 3, 4),
    ("double", 4, 3), ("double", 4, 2),
    ("quasi", 4, 3), ("quasi", 4, 4), ("quasi", 6, 2), ("quasi", 3, 6),
    ("dsdd", 4, 2), ("dsdd", 4, 4),
    ("anchor", 4, 3), ("anchor", 4, 4),
    ("indefinite", 4, 3), ("indefinite", 3, 4),
    ("nonsym", 4, 4), ("nonsym", 3, 6),
    ("quasi", 4, 16), ("b", 4, 12), ("indefinite", 4, 12),
)
COMMANDS = ("classify", "certify", "decompose")


class CertifyFiles:
    name = "certify-files"
    why = ("classify/certify/decompose CLI commands over tensor files that hit "
           "every certification rung; JSON parse, hashing, predicates and the "
           "decomposition loop, no oracle")
    cycle = len(CERTIFY_FILES) * len(COMMANDS)

    def __init__(self, btensor, seed: int, workdir: Path):
        self.cli = btensor.cli
        self.seed = seed
        self.workdir = workdir
        self.files: list[tuple[str, str, np.ndarray, inputs.Expected]] = []

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for k, (kind, m, n) in enumerate(CERTIFY_FILES):
            data = inputs.certify_tensor(kind, m, n, inputs.rng_for(self.seed, 4, k))
            name = f"{k:02d}-{kind}-m{m}-n{n}"
            text = inputs.tensor_file_text(data, name)
            path = self.workdir / f"{name}.json"
            path.write_text(text)
            self.files.append((str(path), text, data, inputs.expected_outcomes(kind, m)))

    def warmup(self) -> None:
        small = self.files[0][0]
        for cmd in COMMANDS:
            run_cli(self.cli, [cmd, small])

    def prepare(self, i: int):
        j = i % self.cycle
        return COMMANDS[j % len(COMMANDS)], self.files[j // len(COMMANDS)]

    def call(self, item):
        cmd, (path, _, _, _) = item
        return run_cli(self.cli, [cmd, path])

    def check(self, i: int, item, outcome) -> list[str]:
        cmd, (_, text, data, expect) = item
        code, out = outcome
        report = _report(out)
        if cmd == "classify":
            return checks.check_classify(code, report, text, data, expect)
        if cmd == "certify":
            return checks.check_certify(code, report, text, data, expect,
                                        inputs.rng_for(self.seed, 5, i))
        return checks.check_decompose(code, report, text, data, expect)

    same = staticmethod(same_cli_outcome)


WORKLOADS = {w.name: w for w in (SearchN2, OracleDense, CertifyFiles)}
