"""Golden outputs: SHA-256 digests of certificates and CLI bytes, pinned.

The digests were recorded from the vertex-scan coloring search and the
pairwise Kneser construction that came before the saturation-level bitsets
and the row unions. Any later change to the branching order, the vertex
order of a matching Kneser graph or the text of ``verify all`` changes a
digest here and fails loudly, even where the result is still a valid
certificate. The family certificates and the ``certify`` files were
recorded while the color-class check still counted edge-disjoint pairs by
inclusion-exclusion, before it moved to pairwise mask tests.
"""

import hashlib
import json

import pytest

from matchkneser import (
    FamilyParams,
    build_matching_kneser,
    certify_family,
    chromatic_number,
    gap_graph,
    gap_tree,
    kneser_graph,
    petersen,
)
from matchkneser.cli import EXIT_OK, main


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


KNESER_CHI = {
    (7, 2): "0c9556eed2e20daa0146633bc8b9ab20379ef51d573c8e57fd0abc8781bb95da",
    (8, 2): "9cad7084b9aae31407b0d8335b9f5d0e7bc735243edb483e3395f3671334525b",
    (9, 2): "68058c6308654d4ceca7f68ff94ed57c0ee2094edd5954ab709b1bd777237cfe",
    (10, 2): "0c8b7a37982e8eb4baceb4b5cbf474249c79211232b0e4e51edf053af175e71e",
    (7, 3): "6708070ceac6dca646bb6ac6a138f00e13bff3e23c39f5a5ded50e9ea4b059f8",
    (8, 3): "c3c1e3e245c95aed3152896a09d97f3471af25eee4f78c3d27e3f832cacff648",
    (9, 3): "badc49e72c29bf51b0826253480234394925df2fd3781b2aba48288233e55750",
}

# host label -> (chromatic certificate digest, digest of [n, edges, matchings])
MATCHING_KNESER = {
    "petersen r=5": (
        "19fdeaa1a73311378a0a17e3c48806e05832267eabb1082148ee819595fcf687",
        "0ce5c1531e0f60627fbf5d5c7913694f8f9048cc685b7c87e9f8eb136b92fe74",
    ),
    "gap(3,4,1)": (
        "2f328bda2acd7f44b822f2d5a1b2276e7d4c52e16c0ce48d4ed1a2531830e5cc",
        "d32daa8fde8d5e9d2a03a4a0e64919d7bc7f1f63badf43477a12eee8c2821a03",
    ),
    "gap(3,5,1)": (
        "e22da1f7ac16e41eaf86b9eee9608f0d7cd72bd1d14d507e911863658c4934b9",
        "d5c1eebf2a9364ad2409ec2c49b9fcbd6f0f129458adc8aa8fe749fb31d1f17f",
    ),
    "gap(4,2,1)": (
        "a89494a63071ae33f35c15d5d99541a228b887d3e01c6e167cc458bd83980b10",
        "b0e55caf861f859a05b48676a3c3eb93266458c2f3e344d5e676208bb88f791b",
    ),
    "gap(4,3,2)": (
        "d44cd2045c3d117ca6ff536716fa4a46709d99e2b9c08408d10839b4d492efbd",
        "540840b727323e5dd41b56d4663ed841fc9d6818468b554803b21c54127d0b1e",
    ),
    "gap_tree(5,1)": (
        "76d4428bed9fd4aef1bfd0e3ca232f67dfa9697b8724bd517bc5c713baab5627",
        "93abd89ca879120881509855f5edd0243a5803972c9d967acafa3e69272f74c6",
    ),
}

# (r, theta, gamma) -> digest of certify_family's counts, pulled coloring,
# forward and backward mappings and small-Kneser coloring
FAMILY_CERTIFICATES = {
    (3, 1, 1): "ca53c5de7adbbca15cf9db1f2c3cfe61a236331793b4d36325299169c004fdc1",
    (3, 2, 1): "8e9f03481fc10058b54b26f9398728a364da8875b6f00549cd5b7b29f2cbf7e5",
    (3, 3, 1): "e80f38b0e659f7f0b71e35a020cc6475e9101c0c98451b556c10eeff2d4370b3",
    (4, 1, 1): "925fc02a3dea59ed999a6d636d9a52df61a911d18781feeef8a870c4bda4c6f9",
    (4, 1, 2): "7722704ab6754c1a81687584ac07d5c52af03c2ac0176db0b41adcf9dcbdb47b",
    (4, 2, 2): "ce06e70f1b9f76b5aeb5e37f455892025ca891b8cb8af84d948fbc1e0aac3bd1",
    (4, 3, 1): "b8e886bdc14532b47ebeb2e9e67d586833ce41241c536d2faa4dae7ee559b7d0",
    (5, 2, 1): "20974aa8de1d5fa522aad3f1adffd93d570dd1a4c4d39f3d3f28709731fd22a3",
    (5, 3, 3): "35260b8af8e69ae82e135955b32f1906727f1307703f0818bc70a5da114604f6",
}

# ``certify --r 3 --theta 3 --gamma 1 --out BASE``: file suffix -> digest of its bytes
CERTIFY_FILES = {
    ".json": "e3263fe830a5cd7455f9476a76d41e9ca5ccc2e82a184af7985109b31413ebbf",
    ".forward.txt": "09d7b32b69145836b6bf7e0c67bab544480fb0e7a9cb0544c43c979906d86c7f",
    ".backward.txt": "164572523547a39bd27b793aa4793502cfc043be6e77cc5b8e0a177569f07a5c",
}
CERTIFY_TEXT = "4c77d48dd08eb11946d56e1fa8516a02d8a50470ebe19dc42b6294c4d901ef9f"

VERIFY_ALL = "1a901673cb4c5f454eb35f5d1931620d2cf2675b6e4ff7cca78b88799e1f80a1"


def _host(label):
    if label == "petersen r=5":
        return petersen(), 5
    if label == "gap_tree(5,1)":
        return gap_tree(5, 1), 5
    r, theta, gamma = map(int, label[4:-1].split(","))
    return gap_graph(FamilyParams(r, theta, gamma)), r


@pytest.mark.parametrize("l, r", sorted(KNESER_CHI))
def test_kneser_chromatic_certificates_are_pinned(l, r):
    cert = chromatic_number(kneser_graph(l, r))
    assert _digest(cert.to_json_dict()) == KNESER_CHI[(l, r)]


@pytest.mark.parametrize("label", sorted(MATCHING_KNESER))
def test_matching_kneser_graphs_and_certificates_are_pinned(label):
    mkg = build_matching_kneser(*_host(label))
    chi_digest, graph_digest = MATCHING_KNESER[label]
    assert _digest([mkg.graph.n, mkg.graph.edges, mkg.matchings]) == graph_digest
    assert _digest(chromatic_number(mkg.graph).to_json_dict()) == chi_digest


def test_verify_all_output_is_pinned(capsys):
    assert main(["verify", "all"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_ALL


@pytest.mark.parametrize("grid", sorted(FAMILY_CERTIFICATES))
def test_family_certificates_are_pinned(grid):
    c = certify_family(FamilyParams(*grid))
    payload = [
        c.n_matchings,
        c.pairs_checked,
        c.chi_certificate.coloring,
        c.forward.mapping,
        c.backward.mapping,
        c.kneser_certificate.coloring,
    ]
    assert _digest(payload) == FAMILY_CERTIFICATES[grid]


def test_certify_files_are_pinned(tmp_path, capsys):
    base = tmp_path / "cert"
    assert main(["certify", "--r", "3", "--theta", "3", "--gamma", "1", "--out", str(base)]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CERTIFY_TEXT
    for suffix, digest in CERTIFY_FILES.items():
        assert hashlib.sha256((tmp_path / f"cert{suffix}").read_bytes()).hexdigest() == digest
