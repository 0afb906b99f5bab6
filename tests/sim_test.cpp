#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/shard_kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tribvote::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  std::vector<int> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.schedule(1, [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeOnDefault) {
  EventHandle h;
  h.cancel();  // no crash
  EXPECT_FALSE(h.pending());
  EventQueue q;
  EventHandle h2 = q.schedule(1, [] {});
  h2.cancel();
  h2.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledEventSkippedAmongLive) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] { order.push_back(1); });
  EventHandle h = q.schedule(2, [&] { order.push_back(2); });
  q.schedule(3, [&] { order.push_back(3); });
  h.cancel();
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, NextTimeReflectsEarliestLive) {
  EventQueue q;
  EventHandle h = q.schedule(5, [] {});
  q.schedule(9, [] {});
  EXPECT_EQ(q.next_time(), 5);
  h.cancel();
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, CancelAfterFireIsHarmless) {
  EventQueue q;
  int runs = 0;
  EventHandle h = q.schedule(1, [&] { ++runs; });
  q.pop().second();
  EXPECT_FALSE(h.pending());  // fired events are no longer pending
  h.cancel();                 // must not corrupt the dead-entry accounting
  q.schedule(2, [] {});
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(runs, 1);
}

TEST(EventQueue, MassCancelDoesNotGrowTheHeap) {
  // Regression: lazily-cancelled entries used to stay in the heap until
  // their deadline, so schedule/cancel churn (PeriodicTask re-arms, fault
  // retries) grew memory without bound. Compaction must keep the live set
  // plus a bounded slack.
  EventQueue q;
  constexpr int kChurn = 1'000'000;
  int fired = 0;
  q.schedule(kChurn + 10, [&] { ++fired; });
  for (int i = 0; i < kChurn; ++i) {
    EventHandle h = q.schedule(i + 5, [&] { ++fired; });
    h.cancel();
    EXPECT_LE(q.size(), 256u) << "heap grew without bound at i=" << i;
  }
  EXPECT_GT(q.compactions(), 0u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);  // only the keeper survived
}

TEST(EventQueue, OrderingSurvivesCompaction) {
  // Interleave live and cancelled events so several compactions happen
  // while live entries are in flight; the live firing order must be
  // untouched.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 999; i >= 0; --i) {
    q.schedule(i, [&order, i] { order.push_back(i); });
    for (int k = 0; k < 20; ++k) {
      doomed.push_back(q.schedule(i, [] { FAIL() << "cancelled event ran"; }));
    }
    for (int k = 0; k < 20; ++k) {
      doomed.back().cancel();
      doomed.pop_back();
    }
  }
  EXPECT_GT(q.compactions(), 0u);
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(order.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Time> stamps;
  sim.schedule_at(10, [&] { stamps.push_back(sim.now()); });
  sim.schedule_at(25, [&] { stamps.push_back(sim.now()); });
  sim.run_until(100);
  EXPECT_EQ(stamps, (std::vector<Time>{10, 25}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, RunUntilExecutesBoundaryEvents) {
  Simulator sim;
  bool at_boundary = false, beyond = false;
  sim.schedule_at(50, [&] { at_boundary = true; });
  sim.schedule_at(51, [&] { beyond = true; });
  sim.run_until(50);
  EXPECT_TRUE(at_boundary);
  EXPECT_FALSE(beyond);
  EXPECT_EQ(sim.now(), 50);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  Time fired_at = -1;
  sim.schedule_at(40, [&] {
    sim.schedule_in(5, [&] { fired_at = sim.now(); });
  });
  sim.run_until(100);
  EXPECT_EQ(fired_at, 45);
}

TEST(Simulator, EventsCanScheduleAtCurrentTime) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(10, [&] {
    order.push_back(1);
    sim.schedule_in(0, [&] { order.push_back(2); });
  });
  sim.run_until(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, StepRunsOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1, [&] { ++count; });
  sim.schedule_at(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, EventsExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run_until(100);
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(PeriodicTask, FiresOnPeriod) {
  Simulator sim;
  std::vector<Time> fires;
  PeriodicTask task(sim, 10, [&] { fires.push_back(sim.now()); });
  task.start();
  sim.run_until(35);
  EXPECT_EQ(fires, (std::vector<Time>{10, 20, 30}));
}

TEST(PeriodicTask, CustomPhase) {
  Simulator sim;
  std::vector<Time> fires;
  PeriodicTask task(sim, 10, [&] { fires.push_back(sim.now()); });
  task.start(/*phase=*/3);
  sim.run_until(25);
  EXPECT_EQ(fires, (std::vector<Time>{3, 13, 23}));
}

TEST(PeriodicTask, StopHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 10, [&] { ++count; });
  task.start();
  sim.run_until(25);
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, CanStopItselfFromCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTask task(sim, 5, [&] {
    if (++count == 3) task.stop();
  });
  task.start();
  sim.run_until(1000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTask, DestructorCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTask task(sim, 5, [&] { ++count; });
    task.start();
    sim.run_until(12);
  }
  sim.run_until(100);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, RestartReschedules) {
  Simulator sim;
  std::vector<Time> fires;
  PeriodicTask task(sim, 10, [&] { fires.push_back(sim.now()); });
  task.start();
  sim.run_until(15);            // fired at 10
  task.start();                 // re-arm: next at 25
  sim.run_until(40);
  EXPECT_EQ(fires, (std::vector<Time>{10, 25, 35}));
}

/// A random pairing like a gossip round produces: each node initiates once
/// (shuffled order), responders drawn uniformly.
std::vector<Encounter> random_round(std::size_t n, util::Rng& rng) {
  std::vector<PeerId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<PeerId>(i);
  rng.shuffle(order);
  std::vector<Encounter> encounters;
  for (const PeerId i : order) {
    const auto j = static_cast<PeerId>(rng.next_below(n));
    if (j == i) continue;
    encounters.push_back(
        {static_cast<std::uint32_t>(encounters.size()), i, j});
  }
  return encounters;
}

/// Record, per node, the sequence numbers of its encounters in execution
/// order. The exchange body touches exactly the two endpoint slots — the
/// kernel's safety contract makes that race-free at any shard count.
std::vector<std::vector<std::uint32_t>> per_node_order(
    std::size_t n, const std::vector<Encounter>& encounters,
    std::size_t shards, util::ThreadPool* pool) {
  ShardKernel kernel(n, shards, pool);
  std::vector<std::vector<std::uint32_t>> seen(n);
  kernel.run_round(encounters, [&](const Encounter& e, std::size_t) {
    seen[e.initiator].push_back(e.seq);
    seen[e.responder].push_back(e.seq);
  });
  return seen;
}

TEST(ShardKernel, SerialFastPathExecutesInSequence) {
  util::Rng rng(1);
  const auto encounters = random_round(50, rng);
  ShardKernel kernel(50, 1, nullptr);
  std::vector<std::uint32_t> executed;
  kernel.run_round(encounters, [&](const Encounter& e, std::size_t lane) {
    EXPECT_EQ(lane, 0u);
    executed.push_back(e.seq);
  });
  ASSERT_EQ(executed.size(), encounters.size());
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
  EXPECT_EQ(kernel.stats().mailed, 0u);
}

TEST(ShardKernel, PerNodeOrderIsSerialOrderAtAnyShardCount) {
  constexpr std::size_t kNodes = 64;
  util::Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const auto encounters = random_round(kNodes, rng);
    const auto serial = per_node_order(kNodes, encounters, 1, nullptr);
    for (const std::size_t shards : {2u, 3u, 5u, 8u}) {
      EXPECT_EQ(per_node_order(kNodes, encounters, shards, nullptr), serial)
          << "shards=" << shards;
    }
  }
}

TEST(ShardKernel, PerNodeOrderHoldsOnRealWorkerPool) {
  constexpr std::size_t kNodes = 64;
  util::Rng rng(9);
  util::ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    const auto encounters = random_round(kNodes, rng);
    const auto serial = per_node_order(kNodes, encounters, 1, nullptr);
    EXPECT_EQ(per_node_order(kNodes, encounters, 4, &pool), serial);
  }
}

TEST(ShardKernel, CrossShardEncountersGoThroughMailboxes) {
  util::Rng rng(11);
  const auto encounters = random_round(64, rng);
  std::size_t cross = 0;
  for (const Encounter& e : encounters) {
    if (e.initiator % 4 != e.responder % 4) ++cross;
  }
  ShardKernel kernel(64, 4, nullptr);
  kernel.run_round(encounters, [](const Encounter&, std::size_t) {});
  EXPECT_EQ(kernel.stats().mailed, cross);
  EXPECT_EQ(kernel.stats().local + kernel.stats().mailed, encounters.size());
  EXPECT_GT(kernel.stats().levels, 0u);
}

TEST(ShardKernel, EveryEncounterRunsOnceEvenWhenExchangesDeclineToAct) {
  // Fault-plane contract: an exchange body that does nothing (unreachable
  // endpoint, crashed responder) still completes its encounter, so the
  // encounters that wait on it run, and every encounter of the round is
  // handed to the body exactly once.
  util::Rng rng(13);
  util::ThreadPool pool(4);
  ShardKernel kernel(64, 4, &pool);
  for (int round = 0; round < 10; ++round) {
    const auto encounters = random_round(64, rng);
    std::vector<std::atomic<int>> runs(encounters.size());
    std::vector<int> acted(64, 0);  // endpoint-owned, like node state
    // Decline every other encounter, mimicking a fault verdict table.
    kernel.run_round(encounters, [&](const Encounter& e, std::size_t) {
      runs[e.seq].fetch_add(1);
      if (e.seq % 2 == 0) return;  // "unreachable": no-op exchange
      ++acted[e.initiator];
      ++acted[e.responder];
    });
    std::vector<int> expected(64, 0);
    for (const Encounter& e : encounters) {
      EXPECT_EQ(runs[e.seq].load(), 1) << "round " << round << " seq " << e.seq;
      if (e.seq % 2 == 1) {
        ++expected[e.initiator];
        ++expected[e.responder];
      }
    }
    EXPECT_EQ(acted, expected) << "round " << round;
  }
  EXPECT_GT(kernel.stats().mailed, 0u);  // cross-lane waits were exercised
}

/// A round that stresses the predecessor waits: uniform pairs, hub nodes
/// that take part in a large share of encounters (deep, narrow levels), and
/// long chains (x0,x1), (x1,x2), ... that cross every lane.
std::vector<Encounter> stress_round(std::size_t n, util::Rng& rng) {
  std::vector<Encounter> encounters;
  const auto push = [&encounters](PeerId i, PeerId j) {
    if (i == j) return;
    encounters.push_back(
        {static_cast<std::uint32_t>(2 * encounters.size() + 1), i, j});
  };
  const auto node = [&rng, n] {
    return static_cast<PeerId>(rng.next_below(n));
  };
  const PeerId hubs[] = {node(), node()};
  for (int block = 0; block < 6; ++block) {
    for (int k = 0; k < 40; ++k) {
      const PeerId i = node();
      push(i, rng.next_bool(0.3) ? hubs[rng.next_below(2)] : node());
    }
    PeerId prev = node();
    for (int k = 0; k < 25; ++k) {
      const PeerId next = node();
      if (rng.next_bool(0.5)) {
        push(prev, next);
      } else {
        push(next, prev);
      }
      prev = next;
    }
  }
  return encounters;
}

/// The lane schedule the kernel promises, computed independently: levels by
/// the conflict rule, then per level each lane's shard-local encounters in
/// seq order followed by its cross-shard ones in (initiator shard, seq)
/// order.
std::vector<std::vector<std::uint32_t>> reference_lane_order(
    std::size_t n, const std::vector<Encounter>& encounters,
    std::size_t shards) {
  std::vector<std::size_t> next(n, 0);
  std::vector<std::vector<Encounter>> levels;
  for (const Encounter& e : encounters) {
    const std::size_t lvl = std::max(next[e.initiator], next[e.responder]);
    next[e.initiator] = next[e.responder] = lvl + 1;
    if (lvl >= levels.size()) levels.resize(lvl + 1);
    levels[lvl].push_back(e);
  }
  std::vector<std::vector<std::uint32_t>> lanes(shards);
  for (const auto& level : levels) {
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Encounter& e : level) {
        if (e.initiator % shards == s && e.responder % shards == s) {
          lanes[s].push_back(e.seq);
        }
      }
      for (std::size_t sender = 0; sender < shards; ++sender) {
        if (sender == s) continue;
        for (const Encounter& e : level) {
          if (e.initiator % shards == sender && e.responder % shards == s) {
            lanes[s].push_back(e.seq);
          }
        }
      }
    }
  }
  return lanes;
}

TEST(ShardKernel, LaneAndNodeOrderMatchReferenceUnderSeededDelays) {
  constexpr std::size_t kNodes = 48;
  util::Rng rng(17);
  for (const std::size_t shards : {2u, 3u, 4u, 8u}) {
    // A pool as wide as the lanes, and a narrower one that makes a worker
    // interleave several lanes.
    for (const std::size_t threads : {shards, std::size_t{2}}) {
      util::ThreadPool pool(threads);
      ShardKernel kernel(kNodes, shards, &pool);
      for (int round = 0; round < 4; ++round) {
        const auto encounters = stress_round(kNodes, rng);
        std::vector<std::uint32_t> delay_us(2 * encounters.size() + 2);
        for (auto& d : delay_us) {
          d = static_cast<std::uint32_t>(rng.next_below(6));
        }
        std::vector<std::vector<std::uint32_t>> nodes(kNodes);
        std::vector<std::vector<std::uint32_t>> lanes(shards);
        kernel.run_round(encounters, [&](const Encounter& e, std::size_t lane) {
          EXPECT_EQ(lane, e.responder % shards);
          if (delay_us[e.seq] > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us[e.seq]));
          }
          nodes[e.initiator].push_back(e.seq);
          nodes[e.responder].push_back(e.seq);
          lanes[lane].push_back(e.seq);
        });
        std::vector<std::vector<std::uint32_t>> serial(kNodes);
        for (const Encounter& e : encounters) {
          serial[e.initiator].push_back(e.seq);
          serial[e.responder].push_back(e.seq);
        }
        EXPECT_EQ(nodes, serial)
            << "shards=" << shards << " threads=" << threads;
        EXPECT_EQ(lanes, reference_lane_order(kNodes, encounters, shards))
            << "shards=" << shards << " threads=" << threads;
      }
    }
  }
}

/// Run `body` on a helper thread and give it `limit` to finish. A hang is
/// a failure that must not block the suite, so the process aborts.
template <typename Body>
void within(std::chrono::seconds limit, Body body) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << "still running after " << limit.count() << " s";
    std::abort();
  }
  runner.join();
}

TEST(ShardKernel, ThrowingExchangeAbortsRoundAndKernelStaysUsable) {
  constexpr std::size_t kNodes = 64;
  within(std::chrono::seconds(10), [] {
    util::Rng rng(19);
    util::ThreadPool pool(4);
    util::ThreadPool* const pools[] = {&pool, nullptr};
    for (util::ThreadPool* p : pools) {
      ShardKernel kernel(kNodes, 4, p);
      for (int round = 0; round < 6; ++round) {
        const auto encounters = random_round(kNodes, rng);
        // One lane throws mid-round; in odd rounds every lane throws.
        const std::uint32_t bad = encounters[encounters.size() / 2].seq;
        EXPECT_THROW(
            kernel.run_round(encounters,
                             [&](const Encounter& e, std::size_t) {
                               if (e.seq == bad ||
                                   (round % 2 == 1 && e.seq % 7 == 3)) {
                                 throw std::runtime_error("exchange failed");
                               }
                             }),
            std::runtime_error);
        // The next round on the same kernel runs in full, in serial order.
        const auto next = random_round(kNodes, rng);
        std::vector<std::vector<std::uint32_t>> seen(kNodes);
        std::vector<std::vector<std::uint32_t>> serial(kNodes);
        kernel.run_round(next, [&](const Encounter& e, std::size_t) {
          seen[e.initiator].push_back(e.seq);
          seen[e.responder].push_back(e.seq);
        });
        for (const Encounter& e : next) {
          serial[e.initiator].push_back(e.seq);
          serial[e.responder].push_back(e.seq);
        }
        EXPECT_EQ(seen, serial) << "round " << round;
      }
    }
  });
}

TEST(ShardKernel, ForEachNodeCoversPopulationOncePerNode) {
  util::ThreadPool pool(3);
  ShardKernel kernel(101, 3, &pool);
  std::vector<int> hits(101, 0);
  kernel.for_each_node([&](PeerId id, std::size_t lane) {
    EXPECT_EQ(lane, id % 3);
    ++hits[id];  // safe: each id visited by exactly one lane
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace tribvote::sim
