"""Input checks: the refusals made through agassi_sim.checks, and a guard that
keeps every finiteness and qubit-count test in that one module (every
basis-index popcount and every mask popcount of the string algebra in
agassi_sim.paulis, the one Pauli decoder ``pauli_masks`` in agassi_sim.paulis,
every coset built from ``x_span`` in agassi_sim.paulis, every ``eigh`` and
every evaluation by ``spectral_states`` in agassi_sim.statevector, every
evaluation of Pauli phases by ``pauli_phases`` in those two modules, and every
call of the rotation kernel, ``rotation_steps`` and ``apply_steps``, in
agassi_sim.statevector, agassi_sim.trotter and agassi_sim.ion_compiler)."""

from pathlib import Path

import numpy as np
import pytest

import agassi_sim
from agassi_sim.experiments import ExperimentConfig
from agassi_sim.ion_compiler import (MS, GateSequence, GlobalPhase, Rotation, count_gates,
                                     error_budget, simulate_sequence)
from agassi_sim.model import ModelParams, build_collective_ops, build_hamiltonian
from agassi_sim.paulis import FermionWord, PauliString, PauliSum, jw_map, pauli, to_matrix
from agassi_sim.statevector import (ExactPropagator, StateVector, apply_pauli_exponential,
                                    basis_state)
from agassi_sim.trotter import build_schedule, coset_states, trotter_evolve

PARAMS = ModelParams(epsilon=1.0, g=0.5, V=0.5)
EIGHT_QUBITS = basis_state("dddduuuu")
COSET = (np.array([1.0, 0.0]), np.array([0b1100, 0b0011]))  # |dduu> on its coset
COUNTS = count_gates(GateSequence(4, (Rotation("z", 0.1, 1),)))


def _exact():
    return ExactPropagator(build_hamiltonian(PARAMS))


REFUSALS = {
    "rotation-float-qubit": (lambda: Rotation("x", np.pi, 2.5), "^qubit must be an integer"),
    "ms-float-ion": (lambda: MS(np.pi / 2, "x", (1.5, 2)), "^MS qubit must be an integer"),
    "ms-list-ions": (lambda: MS(0.1, "x", [1, 2]), "^MS qubits must be a tuple"),
    "rotation-bool-angle": (lambda: Rotation("x", True, 1), "^angle must be a number"),
    "ms-bool-angle": (lambda: MS(True, "x", (1, 2)), "^angle must be a number"),
    "phase-bool-angle": (lambda: GlobalPhase(False), "^angle must be a number"),
    "exponential-bool-theta": (
        lambda: apply_pauli_exponential(basis_state("dd"), pauli("XX"), True),
        "^theta must be a number"),
    "schedule-bool-steps": (lambda: build_schedule(PARAMS, 1.0, True), "^n_T must be an integer"),
    "sequence-bool-steps": (lambda: GateSequence(4, (), n_steps=True),
                            "^n_steps must be an integer"),
    "sequence-float-qubits": (lambda: GateSequence(4.0, ()), "^n_qubits must be an integer"),
    "sequence-negative-qubits": (lambda: GateSequence(-1, ()), "^n_qubits must be an integer"),
    "sequence-str-gate": (lambda: GateSequence(4, ("junk",)),
                          "^step entry 'junk' is not a Rotation, MS or GlobalPhase"),
    "sequence-int-gate": (lambda: GateSequence(4, (1,)),
                          "^step entry 1 is not a Rotation, MS or GlobalPhase"),
    "sequence-list-step": (lambda: GateSequence(4, [Rotation("z", 0.1, 1)]),
                           r"^step must be a tuple of gates, got \[Rotation"),
    "state-bool-n": (lambda: StateVector(np.ones(2) / np.sqrt(2), True),
                     "^n must be an integer >= 0, got True"),
    "state-float-n": (lambda: StateVector(np.ones(1), 1.5), "^n must be an integer >= 0, got 1.5"),
    "state-negative-n": (lambda: StateVector(np.ones(1), -1), "^n must be an integer >= 0, got -1"),
    "jw-bool-n": (lambda: jw_map(FermionWord.parse("1+ 1"), True),
                  "^n must be an integer >= 0, got True"),
    "jw-float-n": (lambda: jw_map(FermionWord.parse("1+ 1"), 1.5),
                   "^n must be an integer >= 0, got 1.5"),
    "collective-bool-j": (lambda: build_collective_ops(True), "^j must be an integer"),
    "budget-bool-e1": (lambda: error_budget(COUNTS, True, 1e-3, 5), "^e1 must be a number"),
    "budget-float-steps": (lambda: error_budget(COUNTS, 1e-4, 1e-3, 2.5),
                           "^n_T must be an integer"),
    "config-list-experiment": (lambda: ExperimentConfig(["survival"]),
                               "^experiment must be a string"),
    "sum-nan-coefficient": (lambda: PauliSum.from_terms([PauliString(float("nan"), "XX")]),
                            "^coefficient of XX must be finite, got nan"),
    "sum-inf-coefficient": (lambda: PauliSum.from_terms([pauli("ZI"), pauli("XY", -1j * np.inf)]),
                            "^coefficient of XY must be finite, got inf"),
    "sum-direct-nan-coefficient": (lambda: PauliSum((PauliString(float("nan"), "XX"),), 2),
                                   "^coefficient of XX must be finite, got nan"),
    "sum-direct-inf-coefficient": (lambda: PauliSum((pauli("ZI"), pauli("XY", np.inf)), 2),
                                   "^coefficient of XY must be finite, got inf"),
    "string-list-letters": (lambda: PauliString(1.0, ["X", "Z"]),
                            r"^letters must be a string, got \['X', 'Z'\]"),
    "string-tuple-letters": (lambda: PauliString(1.0, ("X", "Z")),
                             r"^letters must be a string, got \('X', 'Z'\)"),
    "sum-scaled-by-nan": (lambda: PauliSum.from_terms([pauli("XX")]).scaled(float("nan")),
                          "^factor must be finite, got nan"),
    "sum-scaled-by-inf": (lambda: PauliSum.from_terms([pauli("XX")]) * -np.inf,
                          "^factor must be finite, got inf"),
    "sum-scaled-past-the-float-range": (
        lambda: PauliSum.from_terms([pauli("ZZ", 1e300)]).scaled(1e300),
        "^coefficient of ZZ must be finite, got inf"),
    "propagator-non-hermitian": (
        lambda: ExactPropagator(PauliSum.from_terms([pauli("XY", 1j), pauli("ZZ")])),
        "^Hamiltonian must be Hermitian$"),
    "states-at-8-on-4": (lambda: _exact().states_at(EIGHT_QUBITS, [0.0, 1.0]),
                         "^qubit counts differ: 4 vs 8"),
    "evolve-8-on-4": (lambda: _exact().evolve(EIGHT_QUBITS, 1.0),
                      "^qubit counts differ: 4 vs 8"),
    "trotter-evolve-8-on-4": (lambda: trotter_evolve(EIGHT_QUBITS, PARAMS, 1.0, 2),
                              "^qubit counts differ: 4 vs 8"),
    "exponential-8-on-4": (lambda: apply_pauli_exponential(EIGHT_QUBITS, pauli("XXXX"), 0.1),
                           "^qubit counts differ: 4 vs 8"),
    "simulate-8-on-4": (lambda: simulate_sequence(EIGHT_QUBITS, GateSequence(4, ())),
                        "^qubit counts differ: 4 vs 8"),
    "coset-states-nan-time": (
        lambda: coset_states(*COSET, PARAMS, [0.5, np.nan], 2),
        "^times must be finite"),
    "coset-states-float-steps": (
        lambda: coset_states(*COSET, PARAMS, [0.5], 2.0),
        "^n_T must be an integer"),
    "coset-states-short-start": (
        lambda: coset_states(np.ones(3) / np.sqrt(3), COSET[1], PARAMS, [0.5], 2),
        r"^start must hold 2 amplitudes, one per row, got shape \(3,\)"),
    "coset-states-start-on-every-index": (
        lambda: coset_states(COSET[0], None, PARAMS, [0.5], 2),
        r"^start must hold 16 amplitudes, one per row, got shape \(2,\)"),
    "matrix-rows-empty": (lambda: to_matrix(pauli("XX"), np.empty(0, dtype=np.int64)),
                          r"^rows must hold at least one basis index, got array\(\[\], dtype"),
    "matrix-rows-two-empty": (
        lambda: to_matrix(pauli("XX"), np.empty((2, 0), dtype=np.int64)),
        r"^rows must hold at least one basis index, got array\(\[\], shape=\(2, 0\)"),
    "matrix-no-rows": (
        lambda: to_matrix(pauli("XX"), np.empty((0, 2), dtype=np.int64)),
        r"^rows must hold at least one basis index, got array\(\[\], shape=\(0, 2\)"),
}


@pytest.mark.parametrize("make,message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused_with_a_message_naming_the_field(make, message):
    with pytest.raises(ValueError, match=message):
        make()


HOMES = {"isfinite(": ("checks.py",), "qubit counts differ": ("checks.py",),
         "bitwise_count": ("paulis.py",), "bit_count(": ("paulis.py",),
         "pauli_masks": ("paulis.py",),
         "x_span(": ("paulis.py",), "eigh(": ("statevector.py",),
         "spectral_states(": ("statevector.py",),
         "pauli_phases(": ("paulis.py", "statevector.py"),
         "rotation_steps(": ("statevector.py", "trotter.py", "ion_compiler.py"),
         "apply_steps(": ("statevector.py", "trotter.py", "ion_compiler.py")}


def test_finiteness_and_qubit_count_checks_live_in_checks_only():
    package = Path(agassi_sim.__file__).parent
    copies = [f"{path.name}: {needle}" for path in sorted(package.glob("*.py"))
              for needle, homes in HOMES.items()
              if path.name not in homes and needle in path.read_text()]
    assert copies == []
