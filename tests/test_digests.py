"""Stdout digests over a grid of seeds and shapes.

Each case hashes the ``cli.main()`` stdout of every seed in ``SEEDS``, in
order, into one SHA-256.  The digests were recorded before the sampler was
vectorised; a change to the draw order, the sampling arithmetic or the
render shows here as a digest mismatch.
"""

import hashlib
import json

import pytest

from gutheory.cli import main

SEEDS = range(100)
K = 40

NORMALS = [
    {"family": "normal", "mu": -3.5, "sigma2": 0.25},
    {"family": "normal", "mu": 0, "sigma2": 1},
    {"family": "normal", "mu": 1e6, "sigma2": 4e10},
]
UNIFORMS = [
    {"family": "uniform", "mu": 0.5, "sigma2": 1 / 12},
    {"family": "uniform", "mu": -20, "sigma2": 3},
    {"family": "uniform", "mu": 1e-3, "sigma2": 1e-9},
]
EXPONENTIALS = [
    {"family": "exponential", "mu": 1},
    {"family": "exponential", "mu": 0.125},
    {"family": "exponential", "mu": 250, "sigma2": 62500},
]

GENERATE_DIGESTS = {
    "normal-1": "2f4ac95bb8a9ee7e337fed35f2fb3d3116a4a67ad2428f1e7d547f98426cdb0a",
    "normal-3": "b38c0aa9a5cab89a9588db31712b36b4162dfe3da69d986b2ffc1a1d4696b91d",
    "uniform-1": "77998c95ff2cdd833ae03fa51edc289f082360af9b158027020e28c2afb171a6",
    "uniform-3": "8e78fd18687a9f7864545f7b5bc92cbd3391811ca434a8c8edb73d4b6a92eb45",
    "exponential-1": "9f2dac8c5eeb62e84969003502322bf780a4fe95da91d5d6e272c0284b660120",
    "exponential-3": "bb7fd6f0c9135c97288bf487b6f19dd45d71439e85ff30e79a17bf4a66a04be4",
    "mixed-3": "b45ed1806c98810a9e8f79c85bd0eaa5e411309f706c0a75801825ac35add540",
}

GENERATE_CASES = {
    "normal-1": NORMALS[1:2],
    "normal-3": NORMALS,
    "uniform-1": UNIFORMS[:1],
    "uniform-3": UNIFORMS,
    "exponential-1": EXPONENTIALS[:1],
    "exponential-3": EXPONENTIALS,
    "mixed-3": [NORMALS[1], UNIFORMS[1], EXPONENTIALS[2]],
}


def generate_digest(capsys, distributions) -> str:
    digest = hashlib.sha256()
    text = json.dumps({"k": K, "distributions": distributions})
    for seed in SEEDS:
        code = main(["generate", "--input", text, "--seed", str(seed), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        digest.update(captured.out.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_generate_stdout_digest(capsys, case):
    assert generate_digest(capsys, GENERATE_CASES[case]) == GENERATE_DIGESTS[case]
