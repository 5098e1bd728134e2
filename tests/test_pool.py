"""`runner.pool_map` at width 2: the workers it forks run closures, send
back results of any size in task order, stop at the first failing task and
report one that dies; on every path, an interrupt included, every worker
is reaped before `pool_map` returns or raises."""

import os
import signal
import time

import numpy as np
import pytest

from abqlab import runner


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setenv("ABQ_LAB_THREADS", "2")
    yield
    # no worker outlives the call: this process has no child left to reap
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_task_order_when_tasks_finish_out_of_order(tmp_path):
    finished = tmp_path / "finished"

    def task(index, delay):
        time.sleep(delay)
        with open(finished, "a") as fh:
            fh.write(f"{index}\n")
        return index, os.getpid()

    results = runner.pool_map(task, [(0, 0.3), (1, 0.0), (2, 0.0), (3, 0.0)])
    assert finished.read_text().split() == ["1", "2", "3", "0"]
    assert [index for index, _ in results] == [0, 1, 2, 3]
    assert len({pid for _, pid in results} - {os.getpid()}) == 2


def test_results_of_megabytes_arrive_whole():
    # both workers write a result larger than a pipe's buffer at once
    results = runner.pool_map(lambda size: np.arange(size, dtype=float),
                              [(2 ** 18,), (3 * 2 ** 17 + 1,)])
    assert results[0].nbytes >= 2 ** 20
    for size, result in zip((2 ** 18, 3 * 2 ** 17 + 1), results):
        assert np.array_equal(result, np.arange(size, dtype=float))


def test_workers_inherit_fn_and_tasks_so_neither_is_pickled():
    offset = 10
    results = runner.pool_map(lambda make: (make() + offset, os.getpid()),
                              [(lambda: 1,), (lambda: 2,), (lambda: 3,)])
    assert [value for value, _ in results] == [11, 12, 13]
    assert os.getpid() not in {pid for _, pid in results}


def test_the_first_failing_task_in_order_stops_dispatch_and_is_raised(tmp_path):
    def task(index):
        (tmp_path / f"started-{index}").touch()
        if index == 0:
            time.sleep(0.3)
            (tmp_path / "ended-0").touch()
        if index < 2:
            raise ValueError(f"task {index} failed")
        return index

    with pytest.raises(ValueError, match="^task 0 failed$"):
        runner.pool_map(task, [(index,) for index in range(6)])
    # task 1 failed first, so no task started after it; task 0, running
    # then, ended, and its error is the first in task order
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ended-0", "started-0",
                                                          "started-1"]


def test_a_worker_that_exits_without_a_result_fails_its_task():
    def task(index):
        if index == 1:
            os._exit(3)
        return index

    with pytest.raises(RuntimeError, match="running task 1 exited with status 3 "):
        runner.pool_map(task, [(index,) for index in range(4)])


def test_an_interrupt_reaps_every_worker(tmp_path):
    def task(index):
        (tmp_path / str(index)).touch()
        if index == 0:
            # once the parent has forked both workers (a signal during a fork
            # lands in its at-fork handlers, which drop it), it is
            # interrupted while this task still runs
            while not (tmp_path / "1").exists():
                time.sleep(0.001)
            os.kill(os.getppid(), signal.SIGINT)
            time.sleep(0.3)
        return index

    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
    with pytest.raises(KeyboardInterrupt):
        runner.pool_map(task, [(index,) for index in range(4)])
