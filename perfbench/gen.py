"""Seeded input generators for the benchmark workloads.

Pure Python, independent of the program under test: the same seed always
gives byte-identical files.  An element of R_n is an image tuple of length
n with 0 marking points outside the domain, the program's own convention,
and the files use the program's documented text forms (element JSON and
the ``ballot,count`` CSV).
"""

from __future__ import annotations

import json
import random
from itertools import combinations, permutations
from pathlib import Path

TRANSFORM_N = 6
BALLOT_N = 5
BALLOT_VOTERS = 20_000
CONVOLVE_N = 5
KERNEL_TERMS = 60

# how many candidates a voter ranks (0..5) and how strongly voters favour
# some candidates; tuned for about 300 distinct ballots out of |R_5| = 1546
BALLOT_LENGTH_WEIGHTS = (0.03, 0.27, 0.27, 0.20, 0.12, 0.11)
CANDIDATE_BIAS = (6.0, 3.0, 2.0, 1.0, 0.5)


def enumerate_rn(n: int) -> list[tuple[int, ...]]:
    """All image tuples of R_n, sorted (the program's canonical order)."""
    out = []
    for k in range(n + 1):
        for dom in combinations(range(1, n + 1), k):
            for values in permutations(range(1, n + 1), k):
                img = [0] * n
                for a, b in zip(dom, values):
                    img[a - 1] = b
                out.append(tuple(img))
    out.sort()
    return out


def rank(img: tuple[int, ...]) -> int:
    return sum(1 for v in img if v)


def to_flat(img: tuple[int, ...]) -> str:
    """Flat mapping form "a->b;c->d" with ascending domain ("" = zero map)."""
    return ";".join(f"{a}->{b}" for a, b in enumerate(img, start=1) if b)


def restrictions(img: tuple[int, ...]):
    """Every t <= s in the natural order: s restricted to each subset of its domain."""
    dom = [a for a, b in enumerate(img) if b]
    for r in range(len(dom) + 1):
        for keep in combinations(dom, r):
            out = [0] * len(img)
            for a in keep:
                out[a] = img[a]
            yield tuple(out)


def rank_profile(support, n: int) -> list[int]:
    counts = [0] * (n + 1)
    for img in support:
        counts[rank(img)] += 1
    return counts


def _coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def element_json(n: int, basis: str, coeffs: dict) -> str:
    terms = [
        {"elem": to_flat(img), "re": c.real, "im": c.imag} for img, c in sorted(coeffs.items())
    ]
    return json.dumps({"n": n, "basis": basis, "terms": terms})


def full_element(n: int, seed: int) -> dict:
    """A random complex coefficient on every element of R_n."""
    rng = random.Random(seed)
    return {img: _coeff(rng) for img in enumerate_rn(n)}


def _quota(profile: list[int], total: int) -> list[int]:
    """Split total over the ranks in proportion to profile (largest remainder)."""
    whole = sum(profile)
    shares = [total * c / whole for c in profile]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(profile)), key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return counts


def convolve_operands(n: int, seed: int) -> tuple[dict, dict]:
    """f on half of each rank of R_n, g a kernel of KERNEL_TERMS random elements
    (at most half of R_n, for the small n of the tests) spread over the ranks
    in proportion to their sizes.  The seed picks the elements and the
    coefficients but not how many there are of each rank, so every seed gives
    the same amount of work."""
    rng = random.Random(seed)
    by_rank: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    for img in enumerate_rn(n):
        by_rank[rank(img)].append(img)
    profile = [len(elems) for elems in by_rank]
    kernel_counts = _quota(profile, min(KERNEL_TERMS, sum(profile) // 2))
    f_support, kernel = [], []
    for elems, count in zip(by_rank, kernel_counts):
        f_support += rng.sample(elems, len(elems) // 2)
        kernel += rng.sample(elems, count)
    f = {img: _coeff(rng) for img in sorted(f_support)}
    g = {img: _coeff(rng) for img in sorted(kernel)}
    return f, g


def election(n: int, voters: int, seed: int) -> dict[tuple[int, ...], int]:
    """Ballot counts from a biased Plackett-Luce election.

    Each voter ranks the first r candidates drawn without replacement with
    probability proportional to a seeded shuffle of CANDIDATE_BIAS; r itself
    is drawn from BALLOT_LENGTH_WEIGHTS.  A ballot maps candidate to position.
    """
    rng = random.Random(seed)
    bias = list(CANDIDATE_BIAS[:n])
    rng.shuffle(bias)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(voters):
        r = rng.choices(range(n + 1), weights=BALLOT_LENGTH_WEIGHTS[: n + 1])[0]
        pool = list(range(n))
        img = [0] * n
        for position in range(1, r + 1):
            pick = rng.choices(range(len(pool)), weights=[bias[c] for c in pool])[0]
            img[pool.pop(pick)] = position
        key = tuple(img)
        counts[key] = counts.get(key, 0) + 1
    return counts


def ballot_csv(counts: dict[tuple[int, ...], int]) -> str:
    lines = ["ballot,count"]
    lines += [f"{to_flat(img)},{c}" for img, c in sorted(counts.items())]
    return "\n".join(lines) + "\n"


def groupoid_energy(counts: dict, association: str) -> float:
    """<g,g>_2 for the dataset under an association model.

    Under the groupoid model g is the counts themselves; under the semigroup
    model g is their zeta transform, g(s) = sum of the counts of all x >= s.
    Parseval for the isotypic decomposition says the spectrum sums to this.
    """
    if association == "groupoid":
        return float(sum(c * c for c in counts.values()))
    g: dict[tuple[int, ...], float] = {}
    for img, c in counts.items():
        for t in restrictions(img):
            g[t] = g.get(t, 0.0) + c
    return float(sum(v * v for v in g.values()))


def _facts(support, n: int, files) -> dict:
    return {
        "support": len(support),
        "support_by_rank": rank_profile(support, n),
        "bytes": sum(Path(p).stat().st_size for p in files),
    }


def write_inputs(workload: str, seed: int, outdir: Path, n: int | None = None) -> dict:
    """Write one workload's input files; return their paths, facts and references.

    ``n`` overrides the workload's ambient size (the tests use n = 3).
    """
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "transform_cli_n6":
        n = n or TRANSFORM_N
        f = full_element(n, seed)
        path = outdir / "element.json"
        path.write_text(element_json(n, "semigroup", f))
        return {"n": n, "files": {"element": str(path)}, "facts": _facts(f, n, [path])}
    if workload == "spectrum_ballots_n5":
        n = n or BALLOT_N
        counts = election(n, BALLOT_VOTERS, seed)
        path = outdir / "ballots.csv"
        path.write_text(ballot_csv(counts))
        return {
            "n": n,
            "files": {"ballots": str(path)},
            "facts": _facts(counts, n, [path]),
            "reference": {a: groupoid_energy(counts, a) for a in ("groupoid", "semigroup")},
        }
    if workload == "convolve_sparse_n5":
        n = n or CONVOLVE_N
        f, g = convolve_operands(n, seed)
        fpath, gpath = outdir / "f.json", outdir / "g.json"
        fpath.write_text(element_json(n, "semigroup", f))
        gpath.write_text(element_json(n, "semigroup", g))
        facts = _facts(f, n, [fpath, gpath])
        facts["kernel_support"] = len(g)
        return {"n": n, "files": {"f": str(fpath), "g": str(gpath)}, "facts": facts}
    raise ValueError(f"unknown workload {workload!r}")
