"""Pinned bytes of the CLI reports, saved files and content hashes.

For each tensor below the test pins the SHA-256 of the standard output of
``classify``, ``certify``, ``decompose`` and ``decompose --mode double``
(the ``timestamp`` line removed) with the exit code, the SHA-256 of the
file ``save_tensor`` writes, and ``content_hash``.  One tensor is a
symmetric m=4 n=16 tensor with about 62k stored entries, so the bulk
rendering paths are covered at a size where they split into blocks.  Every
value is dyadic, so the sums behind verdicts and witnesses are exact and
the pins do not depend on the numpy or BLAS build.  The reports carry the
package version, so a version change re-pins the report hashes.

The oracle pins cover ``oracle`` on dim-2 files and ``search-b0`` at dim 2,
whose minima come from polynomial roots.  Those roots are eigenvalues from
LAPACK, so unlike the pins above these depend on the numpy, LAPACK and BLAS
build; they were computed with numpy 2.4.6 and OpenBLAS 0.3.31.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from btensor import Tensor, linear_combine, partially_all_one, unit_tensor
from btensor.cli import main
from btensor.io import content_hash, save_tensor


def dyadic_quasi_tensor(m: int, n: int) -> Tensor:
    """Symmetric tensor with entries k/32 off the diagonal and tails
    ``b[2, i, ..., i] = -1`` that only the quasi pair inequality forgives,
    so ``certify`` takes the quasi-double-B decomposition route."""
    canon = np.sort(np.indices((n,) * m).reshape(m, -1).T, axis=1)
    data = ((canon @ np.arange(3, 3 + 2 * m, 2)) % 17 - 8.0) / 32
    q = 1
    tails = (canon[:, 0] == q) & (canon[:, 1:] == canon[:, 1:2]).all(axis=1) & (canon[:, 1] != q)
    tails |= (canon[:, -1] == q) & (canon[:, :-1] == canon[:, :1]).all(axis=1) & (canon[:, 0] != q)
    data[tails] = -1.0
    data = data.reshape((n,) * m)
    diag = (np.arange(n),) * m
    data[diag] = 0.0
    rows = data.reshape(n, -1)
    beta = np.maximum(rows.max(axis=1), 0.0)
    delta = (beta[:, None] - rows).sum(axis=1) - beta  # less the diagonal slot
    d = beta + 2 * delta + 0.25 + (np.arange(n) % 3) / 8
    d[q] = beta[q] + delta[q] - 0.5
    data[diag] = d
    return Tensor(m, n, data, name=f"dyadic-quasi-m{m}-n{n}")


def block_tensor() -> Tensor:
    """5 I + E/4 with E all-one on rows {1, 2}: a B-tensor whose double
    decomposition takes one step."""
    five = linear_combine(unit_tensor(4, 3), unit_tensor(4, 3), 4.0)
    return linear_combine(five, partially_all_one(4, 3, [1, 2]), 0.25)


TENSORS = {
    "counterexample": lambda request: request.getfixturevalue("counterexample_tensor"),
    "remark": lambda request: request.getfixturevalue("remark_tensor"),
    "block": lambda request: block_tensor(),
    "dyadic-m4-n16": lambda request: dyadic_quasi_tensor(4, 16),
}

COMMANDS = {
    "classify": ["classify"],
    "certify": ["certify"],
    "decompose": ["decompose"],
    "decompose-double": ["decompose", "--mode", "double"],
}

# computed with the `%`-template renderer that the array renderer replaced;
# e3b0c442... is the SHA-256 of empty output (exit 4 writes only to stderr)
GOLDEN = {
    "counterexample": {
        "classify": (0, "f3b60c1749f169f1a8653a5bf2c842e07f218d76e480631ccedcf4aebe6c1926"),
        "certify": (3, "4c89240c31f47103b62005c964b09868b173956e9e3c738f2d583c42f4985eb5"),
        "decompose": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "decompose-double": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "save": "e7ee84f47eb5e4a4bcdc013abac3a8ba18376827a4448a8e931eddb90df5c2e5",
        "content_hash": "7d80931bef89cb66c13e3773ecf209db19f7b8afa60c036cf0d1d049847a28a3",
    },
    "remark": {
        "classify": (0, "61a3f817dab1c071f8dd26ed76e85e50ca28931b47a27d47d7daa6774f17ce78"),
        "certify": (3, "27fbe2534578883e4f04f44e13619f2bb01b773eb3cd8ab8c1279097caad425b"),
        "decompose": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "decompose-double": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "save": "2239547d65fdbbda0edc78ec254c5aebaad1fc62da7a74e67579ca2e660b38ea",
        "content_hash": "fde58d957276998e462520c0c528316e34475f2f72786af80c593398113fd8c5",
    },
    "block": {
        "classify": (0, "8d3d02a864e9318fb3e16dd2b989da75809a5163a2656e70a472303115cbd3a6"),
        "certify": (0, "bdf8756ec2fdb16ecf87becef7072214a3bd55b19e1f8f6ef29f7e140cfda83f"),
        "decompose": (0, "cf6a87c6ee2e9dc665e3f2c48c6bc04f2467711ae303b80972cf776189390305"),
        "decompose-double": (0, "9eb1e485e2289e56789c0dc7187a95ca1107877857cd8881e6d94d4f46d8d060"),
        "save": "ff9ad77cadb2fdfad8cc37b9e448c2089e68f94e54d23bd27c847805232f8098",
        "content_hash": "ede6107aba0bfaa48139f65b70dd4ffebb5d43e1377c3b6e7c1ae8c1cb412a72",
    },
    "dyadic-m4-n16": {
        "classify": (0, "906dbbe5e702482baa863ccc983c408691e9c804b72fb4ddd905c29467c84915"),
        "certify": (0, "0faa010f42c11e8a11189351d6d6b72c9b099db2d3d28bd596bd129dd5f89467"),
        "decompose": (0, "1ae40d23c8fce712f06259474ad5fe4d1896fe7ac696adff1d8ade2df28249ee"),
        "decompose-double": (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "save": "6188b403f5b28c93837786186502fdf6559d8996a0cfbef2cebd478eb8222348",
        "content_hash": "98ad01ab0810b3e89df3fc34215acce7f04bda8009a5775e373ee62fa5531db2",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(code: int, out: str) -> tuple[int, str]:
    """Exit code and SHA-256 of a report with its ``timestamp`` line removed."""
    return code, sha256(re.sub(r'(?m)^  "timestamp": .*\n', "", out).encode())


@pytest.fixture
def tensor_file(request, tmp_path):
    T = TENSORS[request.param](request)
    path = tmp_path / "t.json"
    save_tensor(T, path)
    return request.param, T, path


@pytest.mark.parametrize("tensor_file", sorted(TENSORS), indirect=True)
def test_writers_match_pins(tensor_file):
    key, T, path = tensor_file
    assert sha256(path.read_bytes()) == GOLDEN[key]["save"]
    assert content_hash(T) == GOLDEN[key]["content_hash"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("tensor_file", sorted(TENSORS), indirect=True)
def test_reports_match_pins(tensor_file, command, capsys):
    key, _, path = tensor_file
    code = main(["--quiet", *COMMANDS[command], str(path)])
    assert digest(code, capsys.readouterr().out) == GOLDEN[key][command]


def circle_tensor(m: int) -> Tensor:
    """Symmetric dim-2 tensor with entries k/8, one value per orbit, whose
    form takes both signs on the circle."""
    twos = np.indices((2,) * m).sum(axis=0)  # indices equal to 2, per position
    return Tensor(m, 2, ((5 * twos + m) % 9 - 4.0) / 8, name=f"circle-m{m}")


# computed with the np.polynomial.Polynomial construction of the circle
# candidates that the coefficient arrays replaced; m=3 on the m-norm sphere
# exits 2 with nothing on standard output
ORACLE_GOLDEN = {
    "oracle-m2-l2": (0, "1a54d107a3b3f0dda1bbc7bd9ce6941134b1bb7d55f1e3971567324ff4ec8f45"),
    "oracle-m2-lm": (0, "42142b932a5ff26940189542bf327b7cd2f954d63c76e4f6d9bf8f75aaa77066"),
    "oracle-m3-l2": (0, "dcd6fb1e11242e1ccbfd97e3c07e8ead967ab5b495c8359941d529ba6bc2b995"),
    "oracle-m3-lm": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "oracle-m4-l2": (0, "8957cf96f6b334f780feea0684d6122289a700485cc7c480ef28b52d1d79f88a"),
    "oracle-m4-lm": (0, "29630f61f705f2baf1be36d0b73c75a1f73ee43f1caba0ce212f672cc308c13b"),
    "oracle-m6-l2": (0, "260aa0d259f3ca37cc55b39c56bcff3a3637a7d218b71ab2fc214f789c1ffc2d"),
    "oracle-m6-lm": (0, "4e8effee0d3fcfac2b22e4ea64b3c98e65ad50ad965c8fef3d92ee493362a743"),
    "search-m4-seed1": (1, "d253378fd90c3ac5dc33a6d1a3b83b0c13ff17e295607bd73930ab2e607d949e"),
    "search-m4-seed5": (1, "d92a1b9630645085d400d97a5f11165d0093ada195a89df60e582589cc7191f0"),
    "search-m6-seed1": (1, "00dfe6850d569ef1bd3205c9eccb0d1cf64d77b4b05da8e0b3a8c54f95c69138"),
    "search-m6-seed5": (1, "a70dfac16c276a399b0c7afaa8dad4f418a9aa3bdb937784c3e23bd4135e32a9"),
}


@pytest.mark.parametrize("normalization", ["l2", "lm"])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_oracle_reports_match_pins(m, normalization, tmp_path, capsys):
    path = tmp_path / "t.json"
    save_tensor(circle_tensor(m), path)
    code = main(["--quiet", "oracle", "--normalization", normalization, str(path)])
    assert digest(code, capsys.readouterr().out) == ORACLE_GOLDEN[f"oracle-m{m}-{normalization}"]


# a tolerance of 1e-300 records the samples whose minimum rounds below zero,
# so the reports carry full oracle results
@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("order", [4, 6])
def test_search_reports_match_pins(order, seed, capsys):
    code = main(["search-b0", "--order", str(order), "--dim", "2", "--trials", "40",
                 "--seed", str(seed), "--tol", "1e-300"])
    assert digest(code, capsys.readouterr().out) == ORACLE_GOLDEN[f"search-m{order}-seed{seed}"]
