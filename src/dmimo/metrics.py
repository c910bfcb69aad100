"""Link-quality evaluation: SINR, channel-estimation error, statistics.

The receive model is y_k = h_k^H w_k s_k + interference + noise with unit
symbol power, so user k sees

    SINR_k = |h_k^H w_k|^2 / (sum_{l != k} |h_k^H w_l|^2 + noise_var).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoDataError


@dataclass(frozen=True)
class LinkRealization:
    """Channels and their precoders under a fixed noise variance.

    channel is (M, K); precoding is (M, K), or an (S, M, K) stack of
    precoders evaluated against the one channel. Leading axes of both
    broadcast: a (B, 1, M, K) channel stack meets (B, S, M, K)
    precoders. Column k of a precoder is the unit-norm vector serving
    user k. noise_var is linear power.
    """

    channel: np.ndarray
    precoding: np.ndarray
    noise_var: float

    def __post_init__(self):
        h = np.asarray(self.channel, dtype=complex)
        w = np.asarray(self.precoding, dtype=complex)
        if h.ndim < 2 or w.ndim < 2 or h.shape[-2:] != w.shape[-2:]:
            raise ValueError(
                f"channel {h.shape} and precoding {w.shape} must be (..., M, K) "
                "stacks of the same M and K"
            )
        np.broadcast_shapes(h.shape[:-2], w.shape[:-2])
        if not self.noise_var > 0:
            raise ValueError(f"noise_var must be > 0, got {self.noise_var}")
        object.__setattr__(self, "channel", h)
        object.__setattr__(self, "precoding", w)

    @property
    def num_users(self) -> int:
        return self.channel.shape[-1]


def sinr_all(link: LinkRealization) -> tuple[np.ndarray, np.ndarray]:
    """SINR of every user, returned as (linear, dB) arrays of shape (K,),
    or (..., K) for stacks of channels and precoders.

    A user whose precoder delivers exactly zero signal gets -inf dB; a
    NaN precoder (a failed build) gives NaN.
    """
    cross = np.abs(link.channel.conj().swapaxes(-1, -2) @ link.precoding) ** 2
    signal = np.diagonal(cross, axis1=-2, axis2=-1)
    interference = cross.sum(axis=-1) - signal
    linear = signal / (interference + link.noise_var)
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(linear)
    return linear, db


def sinr(link: LinkRealization, k: int) -> tuple[float, float]:
    """SINR of user k as (linear, dB); ``link`` holds one (M, K) precoder."""
    if not 0 <= k < link.num_users:
        raise ValueError(f"user index {k} out of range")
    linear, db = sinr_all(link)
    return float(linear[k]), float(db[k])


@dataclass(frozen=True)
class ChannelErrorModel:
    """i.i.d. circularly symmetric complex Gaussian estimation error.

    ``sigma_e2`` is one per-entry error variance, or a sequence of S of
    them for a stack of estimates drawn from one unit-noise draw.
    """

    sigma_e2: float | tuple[float, ...]
    rng_seed: object = 0

    def __post_init__(self):
        if not np.all(np.asarray(self.sigma_e2, dtype=float) >= 0):
            raise ValueError(f"sigma_e2 must be >= 0, got {self.sigma_e2}")


def inject_channel_error(
    h_matrix, model: ChannelErrorModel
) -> tuple[np.ndarray, float | np.ndarray]:
    """Return (H + E, realized NMSE) with E ~ CN(0, sigma_e2) per entry.

    The realized NMSE is sum|E|^2 / sum|H|^2 (mean squared error over
    mean squared channel magnitude). Deterministic per seed: the error
    at every sigma_e2 is a scaled version of the same unit-variance
    noise, so error sweeps vary smoothly. With a sequence of S variances
    the unit noise is drawn once and the results are the (S, M, K)
    estimates and the (S,) NMSEs, each slice what its variance alone
    gives.
    """
    h = np.asarray(h_matrix, dtype=complex)
    rng = np.random.default_rng(model.rng_seed)
    unit = (
        rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    ) / np.sqrt(2.0)
    sigma = np.asarray(model.sigma_e2, dtype=float)
    error = np.sqrt(sigma)[..., None, None] * unit
    denom = float(np.sum(np.abs(h) ** 2))
    num = [float(np.sum(np.abs(e) ** 2)) for e in error.reshape(-1, *h.shape)]
    nmse = np.array([0.0 if x == 0 else x / denom for x in num])
    return h + error, nmse.reshape(sigma.shape)[()]


def guaranteed_sinr(samples, coverage: float) -> float:
    """SINR level exceeded in the given fraction of samples (dB in, dB out).

    coverage 0.9 returns the empirical 10th percentile with linear
    interpolation between order statistics.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise NoDataError("guaranteed_sinr needs at least one sample")
    if not 0.0 < coverage < 1.0:
        raise ValueError(f"coverage must be in (0, 1), got {coverage}")
    return sorted_quantile(np.sort(x, axis=None), 1.0 - coverage)


def sorted_quantile(values: np.ndarray, q: float | None = None) -> float:
    """``np.quantile(x, q, method="linear")``, q in [0, 1], of the samples
    x that ``values`` holds in ascending order, as :func:`empirical_cdf`
    returns them, or ``np.median(x)`` for q None; NaN if any sample is NaN.

    numpy's own arithmetic on the order statistics, bit for bit, without
    its partition: the median is the mean of the middle one or two
    values; the quantile interpolates at (n - 1) q as numpy's ``_lerp``
    does, from the right end when the weight is at least 1/2. The sign
    of a zero result is the exception: numpy's sort and partition need
    not keep each zero's sign in its slot, so either may differ from
    numpy's there.
    """
    n = values.size
    if n == 0:
        raise NoDataError("sorted_quantile needs at least one sample")
    if np.isnan(values[-1]):  # a sort puts NaNs last
        return float(values[-1])
    if q is None:
        return float(np.mean(values[(n - 1) // 2 : n // 2 + 1]))
    v = (n - 1) * q
    lo, t = (n - 1, v + 1) if v >= n - 1 else (int(v), v - int(v))  # numpy's indexes and weight
    a, b = float(values[lo]), float(values[min(lo + 1, n - 1)])
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF support points: sorted values and probabilities i/N."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise NoDataError("empirical_cdf needs at least one sample")
    values = np.sort(x)
    probs = np.arange(1, x.size + 1, dtype=float) / x.size
    return values, probs


def noise_variance_from_floor(noise_floor_db: float, mean_user_gain: float) -> float:
    """Noise variance at a floor relative to the average received power.

    The reference power is the mean over users and trials of the MRT
    received power |h_k^H mrt(h_k)|^2 = ||h_k||^2, supplied here as
    ``mean_user_gain``.
    """
    if not np.isfinite(noise_floor_db):
        raise ValueError(f"noise floor must be finite, got {noise_floor_db}")
    if not mean_user_gain > 0:
        raise ValueError(f"mean_user_gain must be > 0, got {mean_user_gain}")
    return 10.0 ** (noise_floor_db / 10.0) * mean_user_gain
