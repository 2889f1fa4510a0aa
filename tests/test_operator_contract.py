"""The operator protocol: ``apply`` and ``adjoint`` take a vector or an N x K
block, and each column of a block's image equals the vector map of that
column bit for bit."""

import numpy as np
import pytest

from rnp import linops
from rnp.core import Rng, standard_normal_matrix
from rnp.linops import (DiagonalWeight, blur_operator, compose, downsample_operator,
                        grad_operator, gram_operator, hessian_operator, identity_operator,
                        matrix_operator, radon_operator, transpose, wavelet_operator)
from rnp.problems import gaussian_kernel
from rnp.sketch import build_preconditioner, nystrom_approx


def split_radon(monkeypatch):
    # small slices and three cores, so even this small matrix splits
    monkeypatch.setattr(linops, "_MIN_BLOCK_NNZ", 1_000)
    monkeypatch.setattr(linops, "_usable_cores", lambda: 3)
    return radon_operator(16, 8, 23)


def weighted_gram(monkeypatch):
    rng = Rng(3)
    A = blur_operator(gaussian_kernel(5, 1.2), 8, 8)
    L, _ = grad_operator(8, 8)
    return gram_operator(A, DiagonalWeight(np.exp(rng.normal(64))), L,
                         DiagonalWeight(np.exp(rng.normal(128))), 0.3)


def ct_wavelet_chain(monkeypatch):
    fwd = compose(split_radon(monkeypatch), transpose(wavelet_operator(16, 16, 2)))
    return compose(transpose(fwd), fwd)


BUILDERS = {
    "identity": lambda mp: identity_operator(7),
    "matrix": lambda mp: matrix_operator(Rng(1).normal(35).reshape(5, 7)),
    "blur": lambda mp: blur_operator(gaussian_kernel(5, 1.2), 12, 10),
    "downsample": lambda mp: downsample_operator(
        blur_operator(gaussian_kernel(5, 1.2), 12, 12), 12, 12, 2),
    "grad": lambda mp: grad_operator(6, 5)[0],
    "hessian": lambda mp: hessian_operator(6, 5)[0],
    "wavelet": lambda mp: wavelet_operator(16, 16, 2),
    "radon": lambda mp: radon_operator(16, 8, 23),
    "radon-split": split_radon,
    "gram": weighted_gram,
    "compose-transpose": lambda mp: transpose(compose(
        grad_operator(8, 8)[0], blur_operator(gaussian_kernel(3, 1.0), 8, 8))),
    "ct-wavelet-normal": ct_wavelet_chain,
}


def assert_contract(fn, rows, cols, seed):
    """fn maps cols-vectors to rows-vectors; check vectors and blocks."""
    rng = Rng(seed)
    x = rng.normal(cols)
    image = fn(x)
    assert image.shape == (rows,)
    for width in (1, 3, 6):
        block = standard_normal_matrix(cols, width, rng)
        for xs in (block, np.asfortranarray(block)):
            out = fn(xs)
            assert out.shape == (rows, width)
            for j in range(width):
                assert np.array_equal(out[:, j], fn(np.ascontiguousarray(xs[:, j])))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_block_image_equals_the_vector_map_of_each_column(name, monkeypatch):
    op = BUILDERS[name](monkeypatch)
    assert_contract(op.apply, op.range_dim, op.domain_dim, 10)
    assert_contract(op.adjoint, op.domain_dim, op.range_dim, 11)


def test_preconditioner_powers_meet_the_contract():
    # a block as wide as the sketch (K = 6) used to broadcast over U'v
    q, _ = np.linalg.qr(standard_normal_matrix(30, 30, Rng(20)))
    phi = (q * np.exp(np.linspace(0.0, -5.0, 30))) @ q.T
    pre = build_preconditioner(nystrom_approx(matrix_operator(phi), 6, Rng(21)), 1e-3)
    for seed, power in enumerate((pre.apply_Pinv, pre.apply_Pinvhalf), start=1):
        assert_contract(power, 30, 30, 30 + seed)
