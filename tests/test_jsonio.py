import json
import random
from fractions import Fraction

import pytest

from modfact import fields, jsonio
from modfact import randomgen as rg
from modfact.chains import ChainModule, ChainMorphism, cok0, cok0_morphism
from modfact.factorizations import Factorization, Morphism
from modfact.matrixring import GammaModule, phi
from modfact.modules import ModulePresentation
from modfact.rings import ring_from_json

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


def _decoded_and_encoded(ring, rng):
    """(decode, json) pairs for one random object of every kind over ring:
    decode(json).to_json() must give json back."""
    x = rg.random_object(ring, rng, 3, max_rank=2)
    y = rg.random_object(ring, rng, 3, max_rank=2)
    f = rg.random_morphism(rng, x, y)
    cx, cy = cok0(x), cok0(y)

    def morphism(j):
        return Morphism.from_json(Factorization.from_json(ring, j["source"]),
                                  Factorization.from_json(ring, j["target"]), j)

    def chain_morphism(j):
        return ChainMorphism.from_json(ChainModule.from_json(ring, j["source"]),
                                       ChainModule.from_json(ring, j["target"]), j)

    return [
        (ring_from_json, ring.to_json()),
        (lambda j: Factorization.from_json(ring, j), x.to_json()),
        (morphism, dict(f.to_json(), source=x.to_json(), target=y.to_json())),
        (lambda j: ModulePresentation.from_json(ring, j), cx.modules[-1].to_json()),
        (lambda j: ChainModule.from_json(ring, j), cx.to_json()),
        (chain_morphism, dict(cok0_morphism(f).to_json(), source=cx.to_json(),
                              target=cy.to_json())),
        (lambda j: GammaModule.from_json(ring, j), phi(x).to_json()),
    ]


def test_decoding_then_encoding_gives_the_same_bytes():
    # every object kind on the 10 stock rings; over Q the JSON holds both
    # integers and n/d in lowest terms
    for k, ring in enumerate(RINGS):
        for seed in range(4):
            for decode, data in _decoded_and_encoded(ring, random.Random(100 * k + seed)):
                back = decode(data).to_json()
                for key in ("source", "target"):
                    if key in data:
                        back[key] = data[key]
                assert json.dumps(back) == json.dumps(data)


def test_canonical_rationals_are_read_without_fractions_parser(monkeypatch):
    strings = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            strings.extend(a for a in args if isinstance(a, str))
            return Fraction(*args, **kwargs)

    monkeypatch.setattr(fields, "Fraction", Counting)
    fractions = 0
    for ring in RINGS[:4]:  # the rationals
        for decode, data in _decoded_and_encoded(ring, random.Random(3)):
            fractions += "/" in json.dumps(data)
            decode(data)
    assert strings == [] and fractions
    # text that is not canonical still goes through the parser
    fields.RationalField().elem_from_json("2/4")
    assert strings == ["2/4"]
