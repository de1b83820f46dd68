"""Scale-invariant SDR scoring with best-permutation alignment.

Improvement is reported against scoring the unprocessed mixture channel
with the same reference, so a do-nothing separator scores 0 dB.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TooManySourcesError, ZeroReferenceError

SDR_CAP = 100.0
MAX_SOURCES = 6


def si_sdr(est, ref) -> float:
    """10 log10(||a s||^2 / ||a s - shat||^2) with a = <shat, s>/||s||^2.

    Capped at +100 dB when the residual vanishes (and floored at -100 dB
    when the projection does, so the value is always finite).
    """
    est = np.asarray(est, dtype=np.float64).ravel()
    ref = np.asarray(ref, dtype=np.float64).ravel()
    if est.shape != ref.shape:
        raise DimensionMismatchError(
            f"estimate length {est.size} != reference length {ref.size}"
        )
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise ZeroReferenceError("reference signal is identically zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    target = alpha * ref
    target_energy = float(np.dot(target, target))
    err = target - est
    err_energy = float(np.dot(err, err))
    if err_energy == 0.0:
        return SDR_CAP
    if target_energy == 0.0:
        return -SDR_CAP
    val = 10.0 * math.log10(target_energy / err_energy)
    return float(min(max(val, -SDR_CAP), SDR_CAP))


@dataclass
class MetricsReport:
    per_source: tuple
    improvement: tuple
    permutation: tuple
    mean_improvement: float

    def to_dict(self):
        return {
            "metric": "si_sdr",
            "per_source": list(self.per_source),
            "improvement": list(self.improvement),
            "permutation": list(self.permutation),
            "mean_improvement": self.mean_improvement,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _channel(sig, ref_channel):
    if hasattr(sig, "channel"):
        return np.asarray(sig.channel(ref_channel))
    arr = np.asarray(sig, dtype=np.float64)
    return arr if arr.ndim == 1 else arr[:, ref_channel]


def sdr_improvement(estimates, refs, mixture, ref_channel: int = 0) -> MetricsReport:
    """Score each estimate against its best-matching reference.

    estimates/refs are per-source multichannel Waveforms (or bare
    arrays); scoring happens at `ref_channel`.  permutation[b] is the
    0-based estimate index assigned to reference b, chosen to maximize
    mean SDR exhaustively.
    """
    n = len(estimates)
    if n != len(refs):
        raise DimensionMismatchError(
            f"{n} estimates vs {len(refs)} references"
        )
    if n > MAX_SOURCES:
        raise TooManySourcesError(
            f"exhaustive alignment supports at most {MAX_SOURCES} sources, got {n}"
        )
    est_ch = [_channel(e, ref_channel) for e in estimates]
    ref_ch = [_channel(r, ref_channel) for r in refs]
    mix_ch = _channel(mixture, ref_channel)

    pair = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            pair[a, b] = si_sdr(est_ch[a], ref_ch[b])

    best_perm = None
    best_mean = -np.inf
    for perm in itertools.permutations(range(n)):
        mean = sum(pair[perm[b], b] for b in range(n)) / n
        if mean > best_mean:
            best_mean = mean
            best_perm = perm

    per_source = tuple(float(pair[best_perm[b], b]) for b in range(n))
    baseline = [si_sdr(mix_ch, ref_ch[b]) for b in range(n)]
    improvement = tuple(per_source[b] - baseline[b] for b in range(n))
    return MetricsReport(
        per_source=per_source,
        improvement=improvement,
        permutation=tuple(best_perm),
        mean_improvement=float(np.mean(improvement)),
    )
