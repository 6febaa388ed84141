import random

import pytest

from modfact import jsonio
from modfact import randomgen as rg
from modfact.matrixring import phi
from modfact.chains import cok0

rng = random.Random(7)
RINGS = rg.default_instances()


@pytest.fixture(scope="module")
def ring():
    return RINGS[2]


@pytest.fixture(scope="module")
def obj(ring):
    return rg.random_object(ring, random.Random(7), 3, max_rank=2)


def test_ring_and_factorization_roundtrip(tmp_path, ring, obj):
    jsonio.write_json(ring.to_json(), str(tmp_path / "ring.json"))
    jsonio.write_json(obj.to_json(), str(tmp_path / "x.json"))
    ring2 = jsonio.load_ring(str(tmp_path / "ring.json"))
    x2 = jsonio.load_factorization(str(tmp_path / "x.json"), ring2)
    assert ring2 == ring
    assert x2.ranks == obj.ranks and x2.maps == obj.maps


def test_morphism_roundtrip_with_embedded_endpoints(tmp_path, ring, obj):
    f, w = rg.random_null_morphism(rng, obj, obj)
    data = f.to_json()
    data["source"] = obj.to_json()
    data["target"] = obj.to_json()
    data["ring"] = ring.to_json()
    jsonio.write_json(data, str(tmp_path / "f.json"))
    f2 = jsonio.load_morphism(str(tmp_path / "f.json"))
    assert f2.components == f.components


def test_chain_and_gamma_roundtrip(tmp_path, ring, obj):
    c = cok0(obj)
    jsonio.write_json(c.to_json(), str(tmp_path / "c.json"))
    c2 = jsonio.load_chain(str(tmp_path / "c.json"), ring)
    assert c2.dims() == c.dims()
    gm = phi(obj)
    jsonio.write_json(gm.to_json(), str(tmp_path / "g.json"))
    g2 = jsonio.load_gamma(str(tmp_path / "g.json"), ring)
    assert g2 == gm


def test_load_any_sniffs_the_kind(tmp_path, ring, obj):
    jsonio.write_json(obj.to_json(), str(tmp_path / "x.json"))
    jsonio.write_json(cok0(obj).to_json(), str(tmp_path / "c.json"))
    jsonio.write_json(phi(obj).to_json(), str(tmp_path / "g.json"))
    assert jsonio.load_any(str(tmp_path / "x.json"), ring)[0] == "factorization"
    assert jsonio.load_any(str(tmp_path / "c.json"), ring)[0] == "chain"
    assert jsonio.load_any(str(tmp_path / "g.json"), ring)[0] == "gamma"


def test_wrong_kind_and_missing_file_raise(tmp_path, ring, obj):
    jsonio.write_json(obj.to_json(), str(tmp_path / "x.json"))
    with pytest.raises(jsonio.InputError):
        jsonio.load_ring(str(tmp_path / "x.json"))
    with pytest.raises(jsonio.InputError):
        jsonio.load_factorization(str(tmp_path / "missing.json"), ring)


def test_load_any_parses_each_file_once(tmp_path, ring, obj, monkeypatch):
    f, _ = rg.random_null_morphism(random.Random(5), obj, obj)
    mor = dict(f.to_json(), source=obj.to_json(), target=obj.to_json())
    files = {"factorization": obj.to_json(), "morphism": mor,
             "chain": cok0(obj).to_json(), "gamma": phi(obj).to_json()}
    single = {"factorization": jsonio.load_factorization,
              "morphism": jsonio.load_morphism,
              "chain": jsonio.load_chain, "gamma": jsonio.load_gamma}
    real = jsonio.read_json
    reads = []
    monkeypatch.setattr(jsonio, "read_json",
                        lambda path: reads.append(path) or real(path))
    for kind, data in files.items():
        path = str(tmp_path / (kind + ".json"))
        jsonio.write_json(data, path)
        del reads[:]
        got_kind, got = jsonio.load_any(path, ring)
        assert got_kind == kind and reads == [path]
        assert got == single[kind](path, ring)
