"""Output checks that do not trust the library under test.

Form values are recomputed with a plain ``numpy.einsum`` over the dense
entries, content hashes with ``hashlib`` over the file as written, and
decompositions are rebuilt entrywise from their JSON.  Every check returns
a list of failure messages; an empty list means the output passed.

Only the search-candidate check calls btensor, because criterion 7 defines
that re-verification through the class predicates themselves.
"""

from __future__ import annotations

import hashlib
import json
import re

import numpy as np

from inputs import all_one, dense_from_doc, diag_positions

LETTERS = "abcdefghijklmnopqrstuvwxy"
FORM_RTOL = 1e-12  # minimizer value against the reported minimum, per largest entry
SAMPLE_SLACK = 1e-9  # oracle minimum may exceed the sampled minimum by this, per largest entry
SAMPLE_COUNT = 256
RECON_TOL = 1e-12
CERTIFY_VERDICT_EXIT = {"positive_definite": 0, "not_positive_definite": 1, "inconclusive": 3}

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def form_ref(data: np.ndarray, x) -> float:
    """Sum over all entries of ``a[i1..im] * x[i1] * ... * x[im]``."""
    m = data.ndim
    subs = LETTERS[:m] + "," + ",".join(LETTERS[:m]) + "->"
    return float(np.einsum(subs, data, *([np.asarray(x, dtype=float)] * m), optimize=False))


def forms_ref(data: np.ndarray, X: np.ndarray) -> np.ndarray:
    """:func:`form_ref` for each row of ``X``, one mode at a time."""
    X = np.asarray(X, dtype=float)
    V = np.broadcast_to(data, (len(X),) + data.shape)
    for _ in range(data.ndim):
        V = np.einsum("z...i,zi->z...", V, X, optimize=False)
    return V


def unit_sample(rng: np.random.Generator, n: int, m: int, normalization: str,
                count: int = SAMPLE_COUNT) -> np.ndarray:
    """Seeded unit vectors in the given norm plus the signed axes."""
    X = rng.normal(size=(count, n))
    p = 2 if normalization == "l2" else m
    X /= (np.abs(X) ** p).sum(axis=1, keepdims=True) ** (1.0 / p)
    eye = np.eye(n)
    return np.vstack([eye, -eye, X])


def _norm(x, m: int, normalization: str) -> float:
    p = 2 if normalization == "l2" else m
    return float((np.abs(np.asarray(x)) ** p).sum() ** (1.0 / p))


def check_oracle(data: np.ndarray, result, normalization: str, rng,
                 positive_definite: bool) -> list[str]:
    """An OracleResult against the einsum reference and a seeded sample."""
    errors = []
    m, n = data.ndim, data.shape[0]
    scale = float(np.max(np.abs(data))) or 1.0
    x = np.asarray(result.minimizer, dtype=float)
    if result.normalization != normalization:
        errors.append(f"normalization {result.normalization!r} != {normalization!r}")
    if abs(_norm(x, m, normalization) - 1.0) > 1e-12:
        errors.append(f"minimizer norm {_norm(x, m, normalization)!r} is not 1")
    ref = form_ref(data, x)
    if abs(ref - result.min_value) > FORM_RTOL * scale:
        errors.append(f"min_value {result.min_value!r} but the minimizer evaluates to {ref!r}")
    sampled = float(forms_ref(data, unit_sample(rng, n, m, normalization)).min())
    if result.min_value > sampled + SAMPLE_SLACK * scale:
        errors.append(f"min_value {result.min_value!r} above the sampled minimum {sampled!r}")
    if positive_definite and not result.min_value > 0.0:
        errors.append(f"positive-definite instance reported min_value {result.min_value!r}")
    return errors


def reference_hash(file_text: str) -> str:
    """SHA-256 of the canonical sparse serialization (nonzero entries in
    lexicographic order, compact sorted-key JSON) of a tensor file."""
    doc = json.loads(file_text)
    entries = sorted(
        ({"idx": list(e["idx"]), "val": float(e["val"])} for e in doc["entries"]
         if float(e["val"]) != 0.0),
        key=lambda e: e["idx"],
    )
    payload = json.dumps({"order": doc["order"], "dim": doc["dim"], "entries": entries},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def check_report_input(report: dict, file_text: str, data: np.ndarray) -> list[str]:
    errors = []
    inp = report.get("input", {})
    if inp.get("content_hash") != reference_hash(file_text):
        errors.append("content_hash does not match the file")
    if (inp.get("order"), inp.get("dim")) != (data.ndim, data.shape[0]):
        errors.append(f"input shape {inp.get('order')}/{inp.get('dim')} is wrong")
    return errors


def check_decomposition(dec: dict, data: np.ndarray) -> list[str]:
    """``residual + sum h_k E(J_k)`` must rebuild the input, with no
    positive off-diagonal entry left in the residual."""
    errors = []
    m, n = data.ndim, data.shape[0]
    residual = dense_from_doc(dec["residual"])
    rebuilt = residual.copy()
    for step in dec["steps"]:
        if not step["weight"] > 0.0:
            errors.append(f"step weight {step['weight']!r} is not positive")
        rebuilt += step["weight"] * all_one(m, n, [k - 1 for k in step["rows"]])
    if dec.get("step_count") != len(dec["steps"]):
        errors.append("step_count disagrees with the step list")
    err = float(np.max(np.abs(rebuilt - data)))
    if err > RECON_TOL * max(1.0, float(np.max(np.abs(data)))):
        errors.append(f"reconstruction error {err:.3e}")
    off = residual.copy()
    off[diag_positions(m, n)] = 0.0
    if np.any(off > 0.0):
        errors.append("residual has a positive off-diagonal entry")
    return errors


def check_classify(code: int, report: dict, file_text: str, data: np.ndarray,
                   expect) -> list[str]:
    if code != 0:
        return [f"classify exit {code}, expected 0"]
    errors = check_report_input(report, file_text, data)
    classes = report.get("classes", {})
    if classes.get("symmetric") is not expect.symmetric:
        errors.append(f"symmetric={classes.get('symmetric')!r}, built {expect.symmetric}")
    if classes.get("even_order") is not (data.ndim % 2 == 0):
        errors.append("even_order flag is wrong")
    return errors


def check_certify(code: int, report: dict, file_text: str, data: np.ndarray,
                  expect, rng) -> list[str]:
    errors = check_report_input(report, file_text, data)
    cert = report.get("certificate", {})
    verdict = cert.get("verdict")
    if CERTIFY_VERDICT_EXIT.get(verdict) != code:
        errors.append(f"exit {code} does not match verdict {verdict!r}")
    if code != expect.certify_exit:
        errors.append(f"certify exit {code}, built for {expect.certify_exit}")
    if expect.route_prefix and not str(cert.get("route")).startswith(expect.route_prefix):
        errors.append(f"route {cert.get('route')!r}, built for {expect.route_prefix!r}")
    if verdict == "positive_definite":
        values = forms_ref(data, unit_sample(rng, data.shape[0], data.ndim, "l2"))
        if not np.all(values > 0.0):
            errors.append(f"positive_definite verdict, but the form is {values.min()!r} on a sample")
    if "decomposition" in cert:
        errors += check_decomposition(cert["decomposition"], data)
    return errors


def check_decompose(code: int, report: dict, file_text: str, data: np.ndarray,
                    expect) -> list[str]:
    if code != expect.decompose_exit:
        return [f"decompose exit {code}, built for {expect.decompose_exit}"]
    if code != 0:
        return []
    return check_report_input(report, file_text, data) + check_decomposition(
        report["decomposition"], data)


def check_search(code: int, report: dict, trials: int, seed: int, tol: float) -> list[str]:
    """Search report sanity plus the criterion-7 re-verification of every
    candidate from its serialized data."""
    from btensor import form_value, is_quasi_double_b0_tensor, is_quasi_double_b_tensor, make_tensor

    search = report.get("search", {})
    errors = []
    if search.get("trials") != trials or search.get("seed") != seed:
        errors.append("search report does not echo trials and seed")
    if not 0 <= search.get("accepted", -1) <= trials:
        errors.append(f"accepted count {search.get('accepted')!r} out of range")
    candidates = search.get("candidates", [])
    if code != (1 if candidates else 0):
        errors.append(f"exit {code} with {len(candidates)} candidates")
    for cand in candidates:
        doc = cand["tensor"]
        entries = [(tuple(e["idx"]), e["val"]) for e in doc["entries"]]
        T = make_tensor(doc["order"], doc["dim"], entries)
        x = np.array(cand["oracle"]["minimizer"])
        min_value = cand["oracle"]["min_value"]
        if not is_quasi_double_b0_tensor(T) or is_quasi_double_b_tensor(T):
            errors.append(f"candidate {cand['trial']} is not weak-but-not-strict")
        if form_value(T, x) != min_value:
            errors.append(f"candidate {cand['trial']} min_value does not re-evaluate exactly")
        scale = float(np.max(np.abs(T.data))) or 1.0
        if abs(form_ref(dense_from_doc(doc), x) - min_value) > FORM_RTOL * scale:
            errors.append(f"candidate {cand['trial']} min_value disagrees with the reference")
        if not min_value < -tol:
            errors.append(f"candidate {cand['trial']} min_value {min_value!r} is not below -tol")
    return errors


def without_timestamp(report_text: str) -> str:
    return _TIMESTAMP.sub('"timestamp": null', report_text)
