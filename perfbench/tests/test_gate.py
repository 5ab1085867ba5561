"""Self-tests of run.py's correctness gate (python3 -m unittest)."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

TRANSCRIPT = """monitoring with 3 queries (K=800, delta=0.70, w=5s)
MATCH query 2 on s1.vcds at t=[41.7, 72.9]s sim=0.812
MATCH query 1 on s2.vcds at t=[10.4, 41.2]s sim=0.934
2 matches total
"""


SHARDS = """shard 0: 520 frames, busy 1.204s, queue high-water 64
shard 1: 500 frames, busy 1.187s, queue high-water 64
shard 2: 480 frames, busy 1.150s, queue high-water 61
"""


def vcdctl_run(out, err="", rc=0):
    return {"rc": rc, "out": out, "err": err}


class GateTest(unittest.TestCase):
    def test_identical_sets_pass_in_any_order(self):
        serial = run.match_set(TRANSCRIPT)
        lines = TRANSCRIPT.splitlines()
        threaded = run.match_set("\n".join([lines[0], lines[2], lines[1]]))
        self.assertEqual(run.compare_match_sets(serial, threaded), [])
        self.assertEqual(run.gate_errors(vcdctl_run(TRANSCRIPT)), [])

    def test_doctored_match_list_fails(self):
        serial = run.match_set(TRANSCRIPT)
        doctored = [
            TRANSCRIPT.replace("sim=0.812", "sim=0.813"),       # changed similarity
            TRANSCRIPT.replace("t=[41.7, 72.9]", "t=[41.7, 78.1]"),  # moved
            TRANSCRIPT.replace("MATCH query 1 on s2.vcds at t=[10.4, 41.2]s sim=0.934\n", ""),
            TRANSCRIPT + "MATCH query 3 on s1.vcds at t=[0.0, 5.2]s sim=0.700\n",
        ]
        for text in doctored:
            self.assertNotEqual(run.compare_match_sets(serial, run.match_set(text)), [], text)

    def test_failed_invocations_fail(self):
        self.assertTrue(run.gate_errors(vcdctl_run(TRANSCRIPT, rc=1)))
        self.assertTrue(run.gate_errors(vcdctl_run(
            TRANSCRIPT, err="warning: s1.vcds: corruption; stream stopped\n")))
        self.assertTrue(run.gate_errors(vcdctl_run(
            TRANSCRIPT + "12 frames dropped by backpressure\n")))
        self.assertTrue(run.gate_errors(vcdctl_run(
            TRANSCRIPT + "3 frames processed degraded\n")))
        self.assertTrue(run.gate_errors(vcdctl_run(
            TRANSCRIPT + "5 frames discarded over 1 quarantine events\n")))

    def test_threaded_run_must_process_every_key_frame(self):
        threaded = TRANSCRIPT + SHARDS
        self.assertEqual(run.gate_errors(vcdctl_run(threaded), key_frames=1500), [])
        self.assertTrue(run.gate_errors(vcdctl_run(threaded), key_frames=1501))
        self.assertTrue(run.gate_errors(vcdctl_run(
            threaded.replace("shard 1: 500 frames", "shard 1: 498 frames")), key_frames=1500))
        # No shard lines at all (for example the serial engine's output).
        self.assertTrue(run.gate_errors(vcdctl_run(TRANSCRIPT), key_frames=1500))


if __name__ == "__main__":
    unittest.main()
