"""Exact output bits of the estimators over a fixed grid of settings.

``golden_bits.json`` holds, per case, ``float.hex`` of y, diff_accum and
every z component plus the four cost counters, recorded from a known-good
build.  A change to the streams, the reduction order or the correction
arithmetic shows here as a differing bit, so refactors of ``mlp`` can be
checked for "same numbers".  Regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` only when the numbers are
meant to change.

The grid is variant x estimate_z x cache (modified only) x
strict_printed_form (modified with z only), over d in {1, 4}, M in {2, 3},
Q in {1, 3}, depth 0..3 and t in {0, 0.3}, for a z-free and a z-coupled
problem.  M = 3 matters: with M^n not a power of two, the order of the
divisions in the depth-0 z terms, (sum/M^n)/tau and (sum/M^n) sqrt(dt),
shows in the last bits.
"""

import itertools
import json
from pathlib import Path

from mlpicard import MlpConfig, estimate, make_problem, run_replications

GOLDEN = Path(__file__).with_name("golden_bits.json")
SEED = 7
X = 0.3


def _hex(v):
    return float(v).hex()


def _bits(y, diff, costs, z):
    return ([_hex(y), _hex(diff)] + [costs[k] for k in sorted(costs)]
            + ([] if z is None else [_hex(v) for v in z]))


def _settings():
    yield "original", False, True, False
    yield "original", True, True, False
    for z, cache in itertools.product((False, True), (True, False)):
        for strict in ((False, True) if z else (False,)):
            yield "modified", z, cache, strict


def compute() -> dict:
    out = {}
    grid = list(itertools.product(_settings(), (2, 3), (1, 3), range(4),
                                  (0.0, 0.3)))
    for name, d in itertools.product(("bounded-nonlinear", "z-coupled"),
                                     (1, 4)):
        p = make_problem(name, dim=d)
        for (variant, z, cache, strict), m, q, depth, t in grid:
            cfg = MlpConfig(variant, depth, m, q, seed=SEED, estimate_z=z,
                            cache=cache, strict_printed_form=strict)
            est = estimate(p, cfg, t, X)
            key = (f"{name} d={d} {variant} z={z} cache={cache} "
                   f"strict={strict} M={m} Q={q} n={depth} t={t}")
            out[key] = _bits(est.y, est.diff_accum, est.cost.as_dict(), est.z)

    p = make_problem("z-coupled", dim=4)
    # the pair entries keep their key names, so golden_bits.json stays as is
    pair = estimate(
        p, MlpConfig("modified", 3, 3, 3, seed=SEED, estimate_z=True),
        0.3, X)
    out["paired_recursion y"] = _bits(pair.y, pair.diff_accum,
                                      pair.cost.as_dict(), pair.z)
    out["paired_recursion y_prev"] = [_hex(pair.y_prev)] + [
        _hex(v) for v in pair.z_prev]
    for variant in ("original", "modified"):
        cfg = MlpConfig(variant, 3, 3, 3, seed=SEED, estimate_z=True)
        stats = run_replications(p, cfg, 0.3, X, replications=5)
        out[f"run_replications {variant}"] = _bits(
            stats.mean_y, stats.std_y, stats.mean_cost, stats.mean_z)
    return out


def test_output_bits_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = compute()
    assert got.keys() == want.keys()
    differing = [k for k in want if got[k] != want[k]]
    assert not differing, (f"{len(differing)} of {len(want)} cases differ, "
                           f"first: {differing[:5]}")


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in compute().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {GOLDEN}")
