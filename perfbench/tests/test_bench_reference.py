"""The benchmark's reference computations agree with btensor on tiny inputs."""

import numpy as np
import pytest

import btensor
from btensor.io import content_hash, load_tensor

import checks
import inputs


@pytest.mark.parametrize("m,n", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_reference_form_matches_form_values(m, n):
    rng = np.random.default_rng(m * 10 + n)
    data = rng.normal(size=(n,) * m)
    X = rng.normal(size=(7, n))
    got = btensor.form_values(btensor.Tensor(m, n, data), X)
    scale = np.max(np.abs(data)) * np.max(np.sum(np.abs(X), axis=1)) ** m
    np.testing.assert_allclose(checks.forms_ref(data, X), got, rtol=0, atol=1e-13 * scale)
    assert checks.form_ref(data, X[0]) == pytest.approx(got[0], rel=0, abs=1e-13 * scale)


def test_reference_symmetrize_matches_symmetrize():
    data = np.random.default_rng(1).normal(size=(3,) * 4)
    ref = inputs.reference_symmetrize(data)
    got = btensor.symmetrize(btensor.Tensor(4, 3, data)).data
    np.testing.assert_allclose(ref, got, rtol=0, atol=1e-15)


def test_reference_hash_matches_content_hash(tmp_path):
    data = inputs.certify_tensor("nonsym", 3, 3, inputs.rng_for(0))
    text = inputs.tensor_file_text(data, "t")
    path = tmp_path / "t.json"
    path.write_text(text)
    with pytest.warns(UserWarning):
        T = load_tensor(path)
    assert np.array_equal(T.data, data)
    assert checks.reference_hash(text) == content_hash(T)


def test_pd_instances_are_positive_and_the_shift_keeps_the_form():
    rng = inputs.rng_for(3)
    data = inputs.pd_tensor(4, 3, rng)
    shifted = inputs.antisymmetric_shift(data, rng)
    X = checks.unit_sample(rng, 3, 4, "l2")
    assert np.all(checks.forms_ref(data, X) > 0.0)
    np.testing.assert_allclose(checks.forms_ref(shifted, X), checks.forms_ref(data, X),
                               rtol=0, atol=1e-12)
