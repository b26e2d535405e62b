#!/usr/bin/env python3
"""Regenerate every bundled fixture from the library, deterministically.

Run from the repository root:

    python3 fixtures/generate.py

Produces:
  chsh.game          the binary coordination game with angle-valued states
  phi-only.game      variant whose payoff ignores the second player's state
  chsh-quantum.dist  singlet measured at angles equal to the private states
  shared-coin.dist   s = phi xor x, t = psi xor x with a fair shared coin x
  copy-psi.dist      signalling example: s copies psi, t is constant
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from qcoord import angle_family, chsh_game, distribution_from_quantum, phi_only_game, singlet_state
from qcoord.fileio import distribution_to_dict, game_to_dict, save_json
from qcoord.signals import JointSignalDistribution
from qcoord.strategies import chsh_reference_strategy

HERE = Path(__file__).resolve().parent
BINARY = ("0", "1")


def chsh_quantum_distribution() -> JointSignalDistribution:
    game = chsh_game()
    strategy = chsh_reference_strategy()
    fam_a = angle_family({s: strategy.angles_a[s] for s in game.states_a})
    fam_b = angle_family({s: strategy.angles_b[s] for s in game.states_b})
    return distribution_from_quantum(singlet_state(), fam_a, fam_b,
                                     game.prior_a, game.prior_b)


def shared_coin_distribution() -> JointSignalDistribution:
    table = np.zeros((2, 2, 2, 2))
    for x in (0, 1):
        for phi in (0, 1):
            for psi in (0, 1):
                table[phi ^ x, psi ^ x, phi, psi] += 0.5 * 0.25
    return JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table)


def copy_psi_distribution() -> JointSignalDistribution:
    table = np.zeros((2, 2, 2, 2))
    for phi in (0, 1):
        for psi in (0, 1):
            table[psi, 0, phi, psi] = 0.25
    return JointSignalDistribution(BINARY, BINARY, BINARY, BINARY, table)


def main():
    save_json(game_to_dict(chsh_game()), HERE / "chsh.game")
    save_json(game_to_dict(phi_only_game()), HERE / "phi-only.game")
    save_json(distribution_to_dict(chsh_quantum_distribution()), HERE / "chsh-quantum.dist")
    save_json(distribution_to_dict(shared_coin_distribution()), HERE / "shared-coin.dist")
    save_json(distribution_to_dict(copy_psi_distribution()), HERE / "copy-psi.dist")
    for name in ("chsh.game", "phi-only.game", "chsh-quantum.dist",
                 "shared-coin.dist", "copy-psi.dist"):
        print(f"wrote {HERE / name}")


if __name__ == "__main__":
    main()
