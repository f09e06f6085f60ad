"""Correctness checks: golden digests, output identity, verdict accuracy.

run.py turns every failed check into failed operations, so that a defect
shows in ``failed`` rather than only in a log line.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Decisions that count as correct for each arm.  Written out here, from
# the protocol descriptions, instead of taken from the program under test.
EXPECTED = {
    "SALT/NORMAL": {"NORMAL"},
    "SALT/MANIPULATED": {"NEGATIVE_MANIPULATION"},
    "FLAG_PULSE/NORMAL": {"NORMAL"},
    "FLAG_PULSE/MANIPULATED": {"NEGATIVE_MANIPULATION"},
    "SELF_BLIND/NORMAL": {"NORMAL"},
    "SELF_BLIND/MANIPULATED": {"POSITIVE_MANIPULATION", "BOTH"},
    "SELF_BLIND/RECOVERY_ATTACK": {"NEGATIVE_MANIPULATION", "BOTH"},
}
ALPHA = 1e-6  # two-sided level of every binomial acceptance test


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(result, workdir: Path) -> dict[str, str]:
    """SHA-256 of trials.jsonl and every hist_*.csv, as the CLI writes them."""
    from blindsim.manifest import write_histogram_csv, write_trials_jsonl

    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        out = Path(tmp)
        write_trials_jsonl(out / "trials.jsonl", result.trials)
        for name, hist in result.histograms.items():
            write_histogram_csv(out / f"hist_{name}.csv", hist)
        return output_file_digests(out)


def records(result) -> list:
    return [t.to_record() for t in result.trials]


def count_mismatches(a, b) -> int:
    """Trials whose records differ between two runs of the same config."""
    if len(a) != len(b):
        return max(len(a), len(b))
    return sum(1 for x, y in zip(a, b) if x != y)


def verdict_tally(recs, arm_key: str) -> tuple[int, int]:
    """(wrong verdicts, verdicts) over trial records of one arm."""
    good = EXPECTED[arm_key]
    n = wrong = 0
    for rec in recs:
        for v in rec["verdicts"]:
            n += 1
            wrong += v["decision"] not in good
    return wrong, n


# -- exact binomial tails on the number of wrong verdicts ------------------


def _log_pmf(n: int, e: int, q: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(e + 1) - math.lgamma(n - e + 1)
            + e * math.log(q) + (n - e) * math.log1p(-q))


def binom_cdf(e: int, n: int, q: float) -> float:
    """P(E <= e) for E ~ Binomial(n, q)."""
    if e < 0:
        return 0.0
    if e >= n or q <= 0.0:
        return 1.0
    if q >= 1.0:
        return 0.0
    return min(1.0, math.fsum(math.exp(_log_pmf(n, i, q)) for i in range(e + 1)))


def binom_sf(e: int, n: int, q: float) -> float:
    """P(E >= e)."""
    return 1.0 - binom_cdf(e - 1, n, q)


def _bisect(f, lo=0.0, hi=1.0) -> float:
    # f is increasing in q; find f(q) = 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def error_rate_bounds(e_ref: int, n_ref: int, alpha: float = ALPHA):
    """Exact (Clopper-Pearson) bounds on the error rate behind e_ref of n_ref."""
    lo = 0.0 if e_ref == 0 else _bisect(lambda q: binom_sf(e_ref, n_ref, q) - alpha / 2)
    hi = 1.0 if e_ref == n_ref else _bisect(lambda q: alpha / 2 - binom_cdf(e_ref, n_ref, q))
    return lo, hi


def accuracy_accepted(wrong: int, n: int, ref: dict, alpha: float = ALPHA) -> bool:
    """Is ``wrong`` of ``n`` plausible for every error rate the reference allows?

    The reference is a frozen tally (``wrong`` of ``n``) from a large run;
    the observation passes when it lies in the level-alpha binomial
    acceptance region of at least the extreme rates of the reference's
    exact interval.
    """
    if n == 0:
        return True
    lo, hi = error_rate_bounds(ref["wrong"], ref["n"], alpha)
    too_many = binom_sf(wrong, n, hi) < alpha / 2
    too_few = binom_cdf(wrong, n, lo) < alpha / 2
    return not (too_many or too_few)


# -- cold CLI output -------------------------------------------------------


def manifest_digest_failures(outdir: Path) -> int:
    """0 when every digest.* line in manifest.txt matches the file it names."""
    try:
        lines = (outdir / "manifest.txt").read_text().splitlines()
    except OSError:
        return 1
    digests = {}
    for line in lines:
        key, _, value = line.partition("=")
        key = key.strip()
        if key.startswith("digest."):
            digests[key[len("digest."):]] = value.strip()
    if "trials.jsonl" not in digests:
        return 1
    for name, digest in digests.items():
        path = outdir / name
        if not path.is_file() or sha256_bytes(path.read_bytes()) != digest:
            return 1
    return 0


def output_file_digests(outdir: Path) -> dict[str, str]:
    return {
        p.name: sha256_bytes(p.read_bytes())
        for p in sorted(outdir.iterdir())
        if p.name == "trials.jsonl" or p.name.startswith("hist_")
    }


def read_records(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
