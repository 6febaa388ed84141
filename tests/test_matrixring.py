import random

from modfact.matrices import TwistedMatrix, mat_identity
from modfact.factorizations import theta
import modfact.matrixring as mr
import modfact.homotopy as ho

from common import R5x2, R5x3, RS, X2, X3, X3b, XS, one

rng = random.Random(11)
X1 = theta(RS, 1, 0, 2)


def test_psi_inverts_phi_on_objects():
    for X in [X3, X3b, X2, XS, X1, theta(R5x3, 3, 0, 2), theta(R5x3, 3, 2, 1)]:
        gm = mr.phi(X)
        assert not mr.validate_gamma(gm)
        assert mr.psi(gm) == X


def test_phi_of_theta0_has_identity_upper_blocks():
    gt = mr.phi(theta(R5x3, 3, 0, 2))
    for (i, j), m in gt.maps.items():
        if i < j:
            assert m.m == mat_identity(R5x3, 2), (i, j)


def test_phi_inverts_psi_on_grids():
    for X in [X3b, XS]:
        gm = mr.phi(X)
        assert mr.phi(mr.psi(gm)) == gm


def test_morphism_roundtrip():
    for X, Y in [(X3b, X3b), (XS, XS)]:
        for _ in range(5):
            w = ho.random_witness(rng, X, Y, 2)
            f = ho.reconstruct_from_witness(X, Y, w)
            gf = mr.phi_morphism(f)
            assert not gf.defects()
            assert mr.psi_morphism(gf) == f


def test_every_single_entry_edit_is_rejected():
    gm = mr.phi(X3b)
    for key in sorted(gm.maps):
        mat = gm.maps[key]
        for a in range(mat.rows):
            for b in range(mat.cols):
                corrupt = {k: TwistedMatrix(R5x3, v.m, v.twist) for k, v in gm.maps.items()}
                entry = list(corrupt[key].m[a][b])
                corrupt[key].m[a][b] = R5x3.add(entry, one)
                gmc = mr.GammaModule(R5x3, gm.ranks, corrupt)
                assert mr.validate_gamma(gmc), ("corruption missed", key, a, b)


def test_some_morphism_edits_are_rejected():
    w = ho.random_witness(rng, X3b, X3b, 1)
    f = ho.reconstruct_from_witness(X3b, X3b, w)
    gf = mr.phi_morphism(f)
    hits = 0
    for t in range(gf.n):
        for a in range(gf.components[t].rows):
            for b in range(gf.components[t].cols):
                comps = [TwistedMatrix(R5x3, c.m, c.twist) for c in gf.components]
                comps[t].m[a][b] = R5x3.add(list(comps[t].m[a][b]), one)
                gmc = mr.GammaMorphism(gf.source, gf.target, comps)
                if gmc.defects():
                    hits += 1
    assert hits > 0


def test_gamma_json_roundtrip():
    gm = mr.phi(XS)
    back = mr.GammaModule.from_json(RS, gm.to_json())
    assert back == gm
