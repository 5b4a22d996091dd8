"""Cold exact enumeration: GF(p) canonicalisation and Python-object dedup.

No warm-up: every enumeration starts with empty caches, as the first
command of a session does.  After the enumerations, every element of
Sigma_{6,6}(2) and Sigma_{4,4}(3) is canonicalised again by `gf.Subspace`
from a seeded invertible mix of its basis rows.  Complex linear algebra
plays no part.
"""

from __future__ import annotations

import numpy as np

from stabkit import commutant, gf, moments, stabilizer

import checks
from workloads import Op

SIGMA = ((6, 2), (4, 3), (4, 5), (3, 7))
LAGRANGIANS = ((3, 2), (2, 3))
O_GROUPS = ((6, 2), (4, 3))
CLASSES = (5, 2)
COSETS = (4, 3)
RECANON = ((6, 2), (4, 3))

CACHED = {
    "commutant.stochastic_lagrangians": commutant.stochastic_lagrangians,
    "commutant.orthogonal_stochastic_group": commutant.orthogonal_stochastic_group,
    "moments.sigma_classes": moments.sigma_classes,
}


def _invertible(rng, count: int, k: int, d: int) -> np.ndarray:
    """`count` random invertible k x k matrices over Z_d, as L U products."""
    lower = np.tril(rng.integers(0, d, size=(count, k, k)), -1) + np.eye(k, dtype=np.int64)
    upper = np.triu(rng.integers(0, d, size=(count, k, k)), 1)
    upper += np.einsum("bi,ij->bij", rng.integers(1, d, size=(count, k)), np.eye(k, dtype=np.int64))
    return np.einsum("bij,bjk->bik", lower, upper) % d


def build(rng, tracer, workdir):
    mixes = {(t, d): _invertible(rng, checks.sigma_count(t, d), t, d) for t, d in RECANON}
    sigma: dict = {}

    def enumerate_sigma(t, d):
        out = tracer.call("commutant.stochastic_lagrangians", commutant.stochastic_lagrangians, t, d)
        tracer.count("commutant.stochastic_lagrangians.elements", len(out))
        sigma[t, d] = out
        return out

    def check_sigma(t, d):
        def check(out):
            want = checks.sigma_count(t, d)
            if len(out) != want or len(set(out)) != want:
                return [("commutant", f"|Sigma_{t},{t}({d})| = {len(out)}, want {want} distinct")]
            return []
        return check

    def enumerate_lagrangians(n, d):
        out = tracer.call("stabilizer.lagrangians", stabilizer.lagrangians, n, d)
        tracer.count("stabilizer.lagrangians.elements", len(out))
        return out

    def check_lagrangians(n, d):
        def check(out):
            want = checks.lagrangian_count(n, d)
            if len(out) != want or len(set(out)) != want:
                return [("stabilizer", f"{len(out)} Lagrangians of Z_{d}^{2 * n}, want {want}")]
            if any(T.dim != n for T in out):
                return [("stabilizer", "a Lagrangian has the wrong dimension")]
            return []
        return check

    def enumerate_group(t, d):
        out = tracer.call(
            "commutant.orthogonal_stochastic_group", commutant.orthogonal_stochastic_group, t, d
        )
        tracer.count("commutant.orthogonal_stochastic_group.elements", len(out))
        return out

    def check_group(t, d):
        def check(out):
            mats = np.array(out, dtype=np.int64).reshape(-1, t, t)
            if not checks.orthogonal_stochastic(mats, t, d).all():
                return [("commutant", f"an element of O_{t}({d}) is not orthogonal stochastic")]
            if len({m.tobytes() for m in mats}) != len(mats):
                return [("commutant", f"O_{t}({d}) has repeated elements")]
            # zero-defect elements of Sigma are exactly the graphs {(O y, y)}
            bases = np.array([T.basis for T in sigma[t, d]])
            graphs = int((checks.batch_rank(bases[:, :, t:], d) == t).sum())
            if graphs != len(mats):
                return [("commutant", f"|O_{t}({d})| = {len(mats)} but Sigma has {graphs} graphs")]
            return []
        return check

    def check_classes(out):
        t, d = CLASSES
        if not checks.is_partition(out, range(checks.sigma_count(t, d))):
            return [("moments", f"sigma_classes{CLASSES} is not a partition of Sigma")]
        return []

    def check_cosets(out):
        if sum(c["size"] for c in out) != checks.sigma_count(*COSETS):
            return [("commutant", "double coset sizes do not add up to |Sigma|")]
        if any(c["size"] != len(c["members"]) for c in out):
            return [("commutant", "a double coset size disagrees with its members")]
        if not checks.is_partition((c["members"] for c in out), sigma[COSETS]):
            return [("commutant", f"double_cosets{COSETS} is not a partition of Sigma")]
        return []

    def recanonicalise(T, mix, d):
        rows = (mix @ T.basis) % d
        return tracer.call("gf.Subspace", gf.Subspace, rows, d)

    def check_recanon(T, d):
        def check(out):
            if out != T or not checks.same_span(out.basis, T.basis, d):
                return [("gf", "re-canonicalised subspace differs from the original")]
            return []
        return check

    def ops():
        for t, d in SIGMA:
            yield Op(f"commutant.stochastic_lagrangians{(t, d)}",
                     lambda t=t, d=d: enumerate_sigma(t, d), check_sigma(t, d))
        for n, d in LAGRANGIANS:
            yield Op(f"stabilizer.lagrangians{(n, d)}",
                     lambda n=n, d=d: enumerate_lagrangians(n, d), check_lagrangians(n, d))
        for t, d in O_GROUPS:
            yield Op(f"commutant.orthogonal_stochastic_group{(t, d)}",
                     lambda t=t, d=d: enumerate_group(t, d), check_group(t, d))
        yield Op(f"moments.sigma_classes{CLASSES}",
                 lambda: tracer.call("moments.sigma_classes", moments.sigma_classes, *CLASSES),
                 check_classes)
        yield Op(f"commutant.double_cosets{COSETS}",
                 lambda: tracer.call("commutant.double_cosets", commutant.double_cosets, *COSETS),
                 check_cosets)
        for t, d in RECANON:
            for T, mix in zip(sigma.get((t, d), ()), mixes[t, d]):
                yield Op("gf.Subspace", lambda T=T, mix=mix, d=d: recanonicalise(T, mix, d),
                         check_recanon(T, d))

    return ops()
