"""Coherence fuzzing and sanitizing.

The paper's whole argument rests on the protocol thread never losing
coherence, so this package makes adversarial correctness checking a
first-class subsystem:

* :mod:`repro.fuzz.sanitizer` — the coherence sanitizer: it evaluates
  the :mod:`repro.protocol.invariants` predicates at every committed
  store and in an end-of-run audit (``MachineParams.check_coherence``)
  and, with ``MachineParams.sanitize``, in periodic sweeps *while the
  machine runs*, alongside queue/MSHR occupancy accounting and a
  livelock watchdog with structured stuck-state diagnosis.
* :mod:`repro.fuzz.stress` — a seeded stress-traffic generator with
  configurable op mixes and sharing patterns, and a deterministic
  executor that can replay any recorded op sequence.
* :mod:`repro.fuzz.faults` — opt-in network fault injection (random
  extra delay, message duplication) hooked into the interconnect.
* :mod:`repro.fuzz.campaign` — one fuzz cell = (seed, machine shape,
  stress config, fault config); campaigns fan cells across the sweep
  worker pool.  ``python -m repro fuzz`` is the CLI.
* :mod:`repro.fuzz.artifact` / :mod:`repro.fuzz.shrink` — on failure,
  a replayable JSON artifact (seed, params, op log, trace tail,
  machine snapshot) is written and the op sequence greedily shrunk to
  a minimal reproducer.
"""
