"""ADC/DAC converter channels interfacing the electronic and photonic domains.

CrossLight's electronic control plane uses DAC arrays to convert buffered
digital weights/activations into analog MR tuning signals, and ADC arrays to
digitise the analog voltages produced by the photodetector/TIA receivers
(paper Fig. 3).  The evaluation assumes the 1-to-56 Gb/s PAM-4 ADC/DAC-based
transceiver of [37] (~250 mW for the full transceiver).

The conversion rate bounds how fast vector elements can be streamed into a
VDP arm; together with the EO tuning latency it sets the per-vector-operation
cycle time of the architecture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class DataConverter:
    """A single ADC or DAC channel.

    Parameters
    ----------
    resolution_bits:
        Number of bits converted per sample.  CrossLight targets 16-bit
        weights/activations, so the default matches.
    sample_rate_gsps:
        Conversion rate in gigasamples per second, derived from the
        transceiver's line rate and the per-sample bit count.
    power_w:
        Power per converter channel.
    """

    kind: str
    resolution_bits: int = 16
    sample_rate_gsps: float = 3.5
    power_w: float = 0.002

    def __post_init__(self) -> None:
        check_positive_int("resolution_bits", self.resolution_bits)
        check_positive("sample_rate_gsps", self.sample_rate_gsps)
        check_positive("power_w", self.power_w)

    @property
    def conversion_latency_s(self) -> float:
        """Latency of one conversion (one sample period)."""
        return 1.0 / (self.sample_rate_gsps * 1e9)

    def time_for_samples_s(self, n_samples: int) -> float:
        """Time to convert ``n_samples`` sequential samples."""
        check_positive_int("n_samples", n_samples)
        return n_samples * self.conversion_latency_s


def dac_channel(resolution_bits: int = 16) -> DataConverter:
    """A DAC channel matching the transceiver of [37] at a given resolution."""
    return DataConverter(kind="DAC", resolution_bits=resolution_bits)


def adc_channel(resolution_bits: int = 16) -> DataConverter:
    """An ADC channel matching the transceiver of [37] at a given resolution."""
    return DataConverter(kind="ADC", resolution_bits=resolution_bits)

