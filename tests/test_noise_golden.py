"""Golden digests of every noise channel's entry points.

The identity tests in ``test_ensemble_inference.py`` compare the ensemble
entry points against ``apply``; once ``apply`` is itself derived from
``apply_stacked`` those comparisons check one code path against itself.  The
sha256 digests below were captured from the original per-path implementations
(scalar ``apply``, shared-base fan-out, stacked ensemble) and are the
independent reference: any change to a channel's arithmetic structure or to
the order in which it draws random numbers changes a digest.

Outputs are hashed after rounding to float32.  The channels go through
``np.exp`` and BLAS matrix products whose last float64 bit may differ between
CPUs and numpy builds; float32 rounding absorbs such host noise, while a
different random draw or a different formula still moves values far beyond
float32 resolution.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from noise_channel_cases import CHANNELS, JitterChannel

from repro.sim import FPVDriftChannel, InterChannelCrosstalkChannel, NoiseStack, QuantizationChannel
from repro.sim.noise import ensemble_apply

#: The shared channel cases plus two stacks that include the apply-only
#: :class:`JitterChannel`.
GOLDEN_CHANNELS = {
    **CHANNELS,
    "third_party_prefix": NoiseStack([QuantizationChannel(bits=8), JitterChannel()]),
    "third_party_middle": NoiseStack(
        [
            FPVDriftChannel(),
            JitterChannel(),
            InterChannelCrosstalkChannel(calibration_rejection_db=25.0),
        ]
    ),
}

SHAPES = [(9,), (7, 5), (4, 3, 3, 3)]
ENSEMBLE_SIZES = [1, 3, 16]
ZERO_SHAPE = (4, 3)


def _weights(shape: tuple[int, ...]) -> np.ndarray:
    return np.random.default_rng(sum(shape) + len(shape)).normal(size=shape)


def _rngs(first_seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(first_seed + member) for member in range(count)]


def _diverged_members(shape: tuple[int, ...], count: int) -> np.ndarray:
    """``count`` members with distinct dynamic ranges; every third is all zero."""
    rng = np.random.default_rng(1000 + count)
    members = [
        np.zeros(shape) if member % 3 == 1 else (1.0 + member) * rng.normal(size=shape)
        for member in range(count)
    ]
    return np.stack(members)


def _shared_row(channel, weights: np.ndarray, count: int) -> np.ndarray:
    """One tensor shared by ``count`` members, as the inference engine perturbs it."""
    out = ensemble_apply(channel, weights[None], _rngs(100, count))
    return np.broadcast_to(out, (count, *weights.shape))


def _outputs(channel, entry: str):
    """Every output of ``entry`` on the golden grid, in a fixed order."""
    for shape in SHAPES:
        weights = _weights(shape)
        if entry == "apply":
            yield channel.apply(weights, np.random.default_rng(7))
            continue
        for count in ENSEMBLE_SIZES:
            if entry == "apply_many":
                yield _shared_row(channel, weights, count)
            else:
                yield ensemble_apply(channel, _diverged_members(shape, count), _rngs(200, count))
    zeros = np.zeros(ZERO_SHAPE)
    if entry == "apply":
        yield channel.apply(zeros, np.random.default_rng(7))
    elif entry == "apply_many":
        yield _shared_row(channel, zeros, 3)
    else:
        yield ensemble_apply(channel, np.zeros((3, *ZERO_SHAPE)), _rngs(200, 3))


def digest(channel, entry: str) -> str:
    """sha256 over the shapes and little-endian float32 bytes of the outputs."""
    hasher = hashlib.sha256()
    for out in _outputs(channel, entry):
        out = np.asarray(out)
        hasher.update(repr(out.shape).encode())
        hasher.update(np.ascontiguousarray(out, dtype="<f4").tobytes())
    return hasher.hexdigest()


GOLDEN: dict[str, dict[str, str]] = {
    "default_stack": {
        "apply": "a7bde0faae23d7fea4d55b63a448e566bfc5172c64fd68df51daaf153c6dbeea",
        "apply_many": "b2b524a9476a0456a82736b1c21cda9dbc0ecc03c8f00665badb8c2348026ee5",
        "ensemble_apply": "bdd68164ebe0b4985e319dafa2ba107f1928e867da523b6d04c21ffee675d66b",
    },
    "fpv": {
        "apply": "1b25d527c740254872b5b478c62fca5ef90b3fe9b7f8fdb817bd4c1bd9f749be",
        "apply_many": "e90c65ac89a76e8b08944f7611ba4e6f3aacd40b5ca66813a6a451a9651ef073",
        "ensemble_apply": "07bc34c2042e9be42a2c468a2b59d461809c0f8e90d8746a1991506588eb15a3",
    },
    "full_stack": {
        "apply": "59e300394177cac29e3e9598e41283022e7f840fe5f44d11fbe12ad05b45e22c",
        "apply_many": "15ddcd001858a9bfc0ade30f3510db7103fe9a54c78f45e23074b486bb7ba53e",
        "ensemble_apply": "e30d7272dd4ef0a1bc39b2d82b3026ecaf526197cb11dc29b127efaf6c6c48ed",
    },
    "interchannel": {
        "apply": "8e3d46666f974ff188a1580bdc9e9628b777a2439bc5f4cc239f026a10bb23d8",
        "apply_many": "ea23a84ea8cc2f99ac164f683a78d0aee317230304b196324a0331841b4cd9a1",
        "ensemble_apply": "1592262aab5ec5c06da3b053e3956b55f4fa8d82ad1a0455f4a6ec02d8fc9a4e",
    },
    "quant1": {
        "apply": "e10f7a2a980d27f881c3ef7f85700d11fe0270921a7f9add0d56bc0293f06a82",
        "apply_many": "5ee9f89cd5da9de583566c460c5f62e5b8a9e83e69433a5fa89b7217b9876e16",
        "ensemble_apply": "dbbf4d5d5a51b56136c6cb08014a276f2b1b1d9d7db079b03ab5c269966282af",
    },
    "quant6": {
        "apply": "9f29fed032a057f4bfa0631b82166f34107ce03649149f85799595070ca7995e",
        "apply_many": "170f205cf4fb5d367904e9605810e813be3d2cde191e680fa46448c4041740b8",
        "ensemble_apply": "be66f423c2d2b24981d13cd2eb5d16ac46dc8d8d01870beae887d97ad7fed333",
    },
    "quant_off": {
        "apply": "ac1d73e1fdec2b1583de6a0e8bfa2e02c54e4aef2defa8ba28b7b2157e52cccf",
        "apply_many": "4b220f181f42f55c373523baf984056067d1d67ab8feff0c80fa511620180ae9",
        "ensemble_apply": "f5bb85445be0c337684b8c06e40d71edc127057716b6c2858e0e26aae8630f8c",
    },
    "residual_drift": {
        "apply": "42204a70f917bac16878a9118af3cce7a9fac23870e2317c9bb3176943db5d6d",
        "apply_many": "c712591e75e2bef06fcb22e966ad6b80ad4667d9bbcb8ca440c43a5f630d1ddb",
        "ensemble_apply": "ec2c20c90b63a6e661fdd4996dd0c172681cd91992093568a192f407369d4697",
    },
    "thermal": {
        "apply": "a7995c3a3abce6af2a4280c5332e8587a971cc46a8474669f1d7cf17cf341cc9",
        "apply_many": "575c54ba7cc367d134cf665fc9e6cbed9a168be5de81ec45ab71dcae5e7a4d74",
        "ensemble_apply": "0843a37eb3264c5c8f5c6c397523823d4d16db71c71280e71bd1e349a9b2f56e",
    },
    "third_party_middle": {
        "apply": "b9f14bac56f6578ff3006c163a3a79b6cf914a3276ad058dd64b60cce945cd17",
        "apply_many": "2bd5e2f4027773cabf32ecb7da9da1627a5fb7163a351dbadfc10d70b1d53544",
        "ensemble_apply": "f1c89d70fae189f52520401bfed17d082127f086b3556344ab3653afa74e66cd",
    },
    "third_party_prefix": {
        "apply": "466f90cf41b79d5a93f5403dc90b4a21d73a8cd914a14d50f2947cec124d3d1e",
        "apply_many": "f940f90906d55912f214758198cfc0837251192e7d9ad39533c31a4367b2af43",
        "ensemble_apply": "059e15c56b9240d8bce26eeb3eafe80135a89aa0b89917929e104182ea074ba6",
    },
}

#: ``"apply_many"`` names the shared-row rows after the entry point their
#: digests were captured from; ``_shared_row`` now produces them.
ENTRIES = ("apply", "apply_many", "ensemble_apply")


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("key", sorted(GOLDEN_CHANNELS))
def test_channel_output_matches_golden(key, entry):
    assert digest(GOLDEN_CHANNELS[key], entry) == GOLDEN[key][entry]


def test_golden_covers_every_channel_and_entry():
    assert set(GOLDEN) == set(GOLDEN_CHANNELS)
    assert all(set(entries) == set(ENTRIES) for entries in GOLDEN.values())
