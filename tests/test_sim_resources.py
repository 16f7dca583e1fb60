"""Unit tests for the counted simulation resource."""

import pytest

from repro.sim import Environment, Resource, SimulationError


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity_immediately():
    env = Environment()
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.in_use == 2


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("start", tag, env.now))
        yield env.timeout(hold)
        res.release(req)

    env.process(user("a", 10))
    env.process(user("b", 5))
    env.process(user("c", 1))
    env.run()
    assert [entry[1] for entry in order] == ["a", "b", "c"]
    assert [entry[2] for entry in order] == [0.0, 10.0, 15.0]


def test_resource_release_wakes_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert not r2.triggered
    res.release(r1)
    assert r2.triggered
    assert res.in_use == 1


def test_release_waiting_request_cancels_it():
    env = Environment()
    res = Resource(env, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r2)  # cancel while still queued
    res.release(r1)
    assert res.in_use == 0


def test_release_foreign_request_rejected():
    env = Environment()
    res_a = Resource(env)
    res_b = Resource(env)
    req = res_a.request()
    with pytest.raises(SimulationError):
        res_b.release(req)


def test_release_without_grant_rejected():
    env = Environment()
    res = Resource(env)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)
