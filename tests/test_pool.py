"""The process pool: jobs in share order, exceptions after every reply, and
a pool that a dead worker or a Ctrl-C ends."""
import os
import time

import pytest

import rulefuzz.pool as pool


def interrupted():
    raise KeyboardInterrupt


def test_each_job_runs_in_its_own_process_in_share_order(cpus):
    cpus(3)
    assert pool.processes() == 3
    assert pool.run([(os.getpid, ())]) == [os.getpid()]
    assert pool._workers is None  # one job starts no worker
    pids = pool.run([(os.getpid, ())] * 3)
    assert pids == [os.getpid(), *(w.pid for w in pool._workers)]
    assert len(set(pids)) == 3
    assert pool.run([(abs, (-1,)), (abs, (-2,))]) == [1, 2]


def test_workers_start_as_calls_need_them(cpus):
    cpus(3)
    assert pool.run([(os.getpid, ())] * 2)[1] == pool._workers[0].pid
    [first] = pool._workers
    pids = pool.run([(os.getpid, ())] * 3)
    assert pids[1:] == [first.pid, pool._workers[1].pid]


@pytest.mark.parametrize("jobs, bad", [
    ([(int, ("1",)), (int, ("x",)), (int, ("y",))], "x"),  # a worker's, the first of two
    ([(int, ("x",)), (int, ("2",)), (int, ("y",))], "x"),  # the caller's own
])
def test_a_failed_job_is_raised_after_every_reply(cpus, jobs, bad):
    cpus(3)
    assert pool.run([(int, ("1",)), (int, ("2",)), (int, ("3",))]) == [1, 2, 3]
    pids = [w.pid for w in pool._workers]
    with pytest.raises(ValueError, match=rf"invalid literal for int\(\) with base 10: '{bad}'"):
        pool.run(jobs)
    # every reply was read, so the same workers answer the next call in step
    assert [w.pid for w in pool._workers] == pids
    assert pool.run([(int, ("4",)), (int, ("5",)), (int, ("6",))]) == [4, 5, 6]


def test_ctrl_c_in_the_caller_kills_the_workers_at_once(cpus):
    cpus(2)
    pool.run([(abs, (-1,)), (abs, (-2,))])
    [worker] = pool._workers
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        pool.run([(interrupted, ()), (time.sleep, (30,))])
    assert time.monotonic() - start < 5
    assert pool._workers is None
    assert worker.returncode == -9
    assert pool.run([(abs, (-1,)), (abs, (-2,))]) == [1, 2]
    assert pool._workers[0].pid != worker.pid
