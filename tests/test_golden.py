"""Golden digests of the CLI's deterministic outputs.

Each case runs ``cli.main`` in-process and pins the SHA-256 of what it
writes: the CSV file and the summary on stdout for ``solve``, the CSV for
``sweep``, the four CSVs for ``figure`` and the table for ``verify``.  A
change that claims to keep the outputs "byte-identical" proves it here; a
change that moves any bit on purpose updates the digest and says why.
"""

import hashlib

import pytest

from sheetcrystal import oracle
from sheetcrystal.cli import main

from conftest import pinned

SWEEP = "N = 0..8\nalpha = 0.5, 1, 2, 0.7\na = 0.5, 1, 1.3\n"
SOLVE = {
    "canonical": "mode = canonical\nN = 8\nalpha = 1\na = 1\n",
    "uneven": "mode = sheets\nsheets = -1.7:2.2, -0.3:-0.8, 0.9:1.4\n",
    "quantum": "mode = quantum\ndeltas = -1:-1, 1:-1\noffsets = 0, -2, 0\n",
}

# a CSV that carries oracle or wavefunction values through numpy's exp, expm1 or log
# has one digest per numpy kernel level (conftest.simd_level): the AVX2 kernels round
# some arguments differently from the AVX-512 ones
DIGESTS = {
    "sweep": {
        # the oracle's state is rebuilt at the certified closed-form kappa, no longer at the
        # search's root: closed_vs_oracle_resid moved in two rows, N = 7 and 8 at
        # alpha = 0.7, a = 1.3 (1.0e-13 -> 2.8e-17 and 3.1e-13 -> 1.7e-16); every other cell is unchanged
        "csv": "95c07e7eea444e8e182b7d4d462a0742329d955368688f6ff906efc81ac7b7b5",
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    # the summary's norm_constant line became log_norm_constant, printed in every mode;
    # every other line and every CSV are unchanged
    "solve-canonical": {
        "csv": {
            "X86_V4": "7b11ebb642c8e52c3a6245d617f8b9d6750075435a53fc00d816a1bc8c8f223b",
            "X86_V3": "8bb2a59565046072ff64c8d1f91e6703a258a91b2fe50f964045fcd753ff1733",
        },
        "stdout": "5b67acc32864dd57222d647625e2858874a269517d98f535539b200e2de5d54d",
    },
    "solve-uneven": {
        "csv": {
            "X86_V4": "eb85681db7a67da1c34131335a8cbecce010dfa9be67575ad88423afbf1b224b",
            "X86_V3": "310f436f79135d004378299e632eca2a21e4a22750a36b473b95972cf45295ec",
        },
        "stdout": "87fade7318cc9b3d1b75e59b40fc950252d96f976eda384b8a30b2e71b572334",
    },
    "solve-quantum": {
        "csv": {
            "X86_V4": "52e6c6711f43b472da6363a0a9829ead92f2f37bc133a00a65fbcbf1f7d18a42",
            "X86_V3": "47e30af04d9b97eec569877003c5f6d5eeb008faf69a25d585863b756885491a",
        },
        "stdout": "34283793fc9a5a9a80a84fdc7331bedb2f0defdfee9095e8c2b4d77b5395cc4f",
    },
    "figure": {
        "N1": "a9b5cb3f612e887a7144ada4ab07d64c0d317e7bc0374a6f4285bdb216fe9ac3",
        "N2": "f4c1919ff91600f30c22d2928052e992e6cb960d0440157376b89356fbff8f3c",
        "N3": "a98144a62115e20d048deb5bde3e46e06b22a91b7860aaae6aacbdb15543cf36",
        "N4": "fa7c42bf10ea6bfc8895343fd05b4102be45f3774715050f9b318d8ff4be9c02",
        "stdout": "2a15cb53902b7da8b1317ee153268400bef4986b07c3644eda993410f0a4adf1",
    },
    # the oracle's roots moved within tol (at most 5.0e-14 in kappa) when Chandrupatla's step and
    # multisection replaced regula falsi: the continuity and cusp residual rows moved, every row passes
    "verify-quick": {"stdout": "7e1bd646aad1ad81af52e1f978d045f4f67c2c25938ea3d7d12a1fe6dde74e10"},
    "verify-full": {"stdout": "8e241a3b14645c450bf428a37a2aa2d52e2a47624437ebfcfb25ae72369488e8"},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(parts):
    """Each part's digest at this run's numpy kernel level."""
    return {part: pinned(digest) for part, digest in parts.items()}


def _outputs(name, tmp_path, capsys):
    """(exit code, {part: bytes}) of one golden case."""
    if name == "sweep":
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        cfg.write_text(SWEEP)
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        return code, {"csv": out.read_bytes(), "stdout": capsys.readouterr().out.encode()}
    if name.startswith("solve-"):
        cfg, out = tmp_path / "solve.cfg", tmp_path / "solve.csv"
        cfg.write_text(SOLVE[name.removeprefix("solve-")])
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        return code, {"csv": out.read_bytes(), "stdout": capsys.readouterr().out.encode()}
    if name == "figure":
        code = main(["figure", "--out", str(tmp_path)])
        parts = {f"N{n}": (tmp_path / f"crystal_psi_N{n}.csv").read_bytes() for n in (1, 2, 3, 4)}
        parts["stdout"] = capsys.readouterr().out.replace(str(tmp_path), "<out>").encode()
        return code, parts
    depth = name.removeprefix("verify-")
    code = main(["verify", "--depth", depth])
    return code, {"stdout": capsys.readouterr().out.encode()}


# the sweep CSV as the search alone writes it, before the certificate pass
SEARCHED_SWEEP_CSV = {
    "X86_V4": "8f56df18e1a20cef26853755533db589c7f3c0e897bf2d99815efa1db55348b8",
    "X86_V3": "6d46c5c8368cd7c75a71b6113a651b593d8de68d259dc8fe1cb49845f143efff",
}

CASES = ["sweep", *(f"solve-{key}" for key in SOLVE), "figure", "verify-quick", "verify-full"]


@pytest.mark.parametrize("name", CASES)
def test_cli_output_digest(name, tmp_path, capsys):
    code, parts = _outputs(name, tmp_path, capsys)
    assert code == 0
    assert {part: _sha(data) for part, data in parts.items()} == _digests(DIGESTS[name])


@pytest.mark.parametrize("key", SOLVE)
def test_golden_solve_writes_nothing_on_stderr(key, tmp_path, capsys):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE[key])
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve.csv")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", ["sweep", "solve-canonical", "solve-uneven"])
def test_uncertified_kappa_falls_back_to_the_search_byte_for_byte(name, tmp_path, capsys, monkeypatch):
    # a kappa moved by 1e-9 relative counts 0 at both ends of its certificate, so sweep
    # searches every cell and solve counts by the certificate's column at 0+, and the
    # outputs are the ones the search alone gives
    answers, certify = [], oracle.certify_ground_states

    def moved(problems, kappas):
        answers.extend(certify(problems, [kappa * (1.0 + 1e-9) for kappa in kappas]))
        return answers[-len(problems):]

    monkeypatch.setattr(oracle, "certify_ground_states", moved)
    code, parts = _outputs(name, tmp_path, capsys)
    assert code == 0
    assert answers and not any(answer.states for answer in answers)
    want = dict(DIGESTS[name], csv=SEARCHED_SWEEP_CSV) if name == "sweep" else DIGESTS[name]
    assert {part: _sha(data) for part, data in parts.items()} == _digests(want)
