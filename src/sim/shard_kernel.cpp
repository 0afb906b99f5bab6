#include "sim/shard_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace tribvote::sim {
namespace {

using Clock = std::chrono::steady_clock;

/// How long a lane spins on a predecessor's flag before it sleeps in
/// std::atomic::wait. The spin catches predecessors that are about to
/// finish; most waits outlast an encounter, and on `vote_plane` spins of
/// 0.5 ms and 3 ms left total wait unchanged while raising CPU per
/// encounter by 15 % and 70 % (spin time counts as CPU time).
constexpr auto kSpinLimit = std::chrono::microseconds(50);
constexpr int kSpinBatch = 32;  // flag loads between clock reads

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

ShardKernel::ShardKernel(std::size_t population, std::size_t shards,
                         util::ThreadPool* pool)
    : population_(population),
      shards_(std::max<std::size_t>(1, shards)),
      pool_(pool) {
  last_.assign(population_, 0);
  inbox_.resize(shards_ * shards_);
  plan_.resize(shards_);
  slots_.resize(shards_);
}

void ShardKernel::plan_round(const std::vector<Encounter>& encounters) {
  // Level assignment and predecessors: one pass, O(encounters). last_[id]
  // is 1 + the position of id's latest encounter so far, so e's level is
  // one above the higher of its endpoints' latest levels, and those two
  // encounters are its predecessors. A predecessor on e's own lane runs
  // earlier in the lane's plan (lower level), so e need not wait for it.
  const auto n = static_cast<std::uint32_t>(encounters.size());
  steps_.resize(n);
  for (auto& level : levels_) level.clear();
  level_count_ = 0;
  const auto predecessor = [&](std::uint32_t last, std::size_t lane) {
    if (last == 0) return kNoStep;
    const std::uint32_t p = last - 1;
    return shard_of(encounters[p].responder) == lane ? kNoStep : p;
  };
  for (std::uint32_t p = 0; p < n; ++p) {
    const Encounter& e = encounters[p];
    assert(e.initiator < population_ && e.responder < population_);
    assert(p == 0 || encounters[p - 1].seq < e.seq);
    const std::uint32_t a = last_[e.initiator];
    const std::uint32_t b = last_[e.responder];
    std::uint32_t level = 0;
    if (a != 0) level = steps_[a - 1].level + 1;
    if (b != 0) level = std::max(level, steps_[b - 1].level + 1);
    const std::size_t lane = shard_of(e.responder);
    Step& step = steps_[p];
    step.pos = p;
    step.level = level;
    step.after_a = predecessor(a, lane);
    step.after_b = b == a ? kNoStep : predecessor(b, lane);
    last_[e.initiator] = p + 1;
    last_[e.responder] = p + 1;
    if (level >= levels_.size()) levels_.resize(level + 1);
    levels_[level].push_back(p);
    level_count_ = std::max<std::size_t>(level_count_, level + 1);
    if (shard_of(e.initiator) == lane) {
      ++stats_.local;
    } else {
      ++stats_.mailed;
    }
  }
  // Reset only the touched entries (population_ may dwarf the round size).
  for (const Encounter& e : encounters) {
    last_[e.initiator] = 0;
    last_[e.responder] = 0;
  }
  stats_.levels += level_count_;

  // Lane plans: per level, the lane's shard-local encounters in sequence
  // order, then its cross-shard ones in (initiator shard, sequence) order.
  for (auto& plan : plan_) plan.clear();
  for (std::size_t level = 0; level < level_count_; ++level) {
    for (const std::uint32_t p : levels_[level]) {
      const std::size_t lane = shard_of(encounters[p].responder);
      const std::size_t sender = shard_of(encounters[p].initiator);
      if (lane == sender) {
        plan_[lane].push_back(steps_[p]);
      } else {
        inbox_[lane * shards_ + sender].push_back(p);
      }
    }
    for (std::size_t lane = 0; lane < shards_; ++lane) {
      for (std::size_t sender = 0; sender < shards_; ++sender) {
        auto& inbox = inbox_[lane * shards_ + sender];
        for (const std::uint32_t p : inbox) plan_[lane].push_back(steps_[p]);
        inbox.clear();
      }
    }
  }
}

bool ShardKernel::await(std::uint32_t pos, std::uint32_t epoch,
                        LaneSlot& slot) {
  if (pos == kNoStep) return true;
  std::atomic<std::uint32_t>& flag = done_[pos];
  std::uint32_t seen = flag.load(std::memory_order_acquire);
  if (seen == epoch) return true;
  const auto t0 = Clock::now();
  bool ok = true;
  for (;;) {
    // Spin, then sleep. The aborted_ check precedes each sleep; abort_round
    // sets aborted_ before it rewrites and notifies every flag, so a
    // sleeper either sees the abort or is woken by the rewrite.
    for (int i = 0; i < kSpinBatch && seen != epoch; ++i) {
      cpu_relax();
      seen = flag.load(std::memory_order_acquire);
    }
    if (seen == epoch) break;
    if (aborted_.load()) {
      ok = false;
      break;
    }
    if (Clock::now() - t0 < kSpinLimit) continue;
    flag.wait(seen);
    seen = flag.load(std::memory_order_acquire);
  }
  slot.wait_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  return ok;
}

void ShardKernel::abort_round(std::exception_ptr error, std::size_t count) {
  {
    std::lock_guard lock(error_mutex_);
    if (!error_) error_ = std::move(error);
  }
  aborted_.store(true);
  for (std::size_t p = 0; p < count; ++p) {
    done_[p].store(kAbortMark);
    done_[p].notify_all();
  }
}

void ShardKernel::run_worker(std::size_t first, std::size_t stride,
                             const std::vector<Encounter>& encounters,
                             const ExchangeFn& exchange,
                             telemetry::TraceBuffer* trace) {
  const std::uint32_t epoch = epoch_;
  for (std::size_t lane = first; lane < shards_; lane += stride) {
    LaneSlot& slot = slots_[lane];
    slot.cursor = 0;
    slot.wait_ns = 0;
    if (trace != nullptr) slot.start_us = trace->now_us();
  }
  // Levels ascend along every plan and each predecessor sits on a lower
  // level, so walking this worker's lanes level by level never waits on an
  // encounter the worker itself has yet to run.
  const auto walk = [&] {
    for (std::size_t level = 0; level < level_count_; ++level) {
      for (std::size_t lane = first; lane < shards_; lane += stride) {
        telemetry::set_current_lane(lane);
        LaneSlot& slot = slots_[lane];
        const std::vector<Step>& plan = plan_[lane];
        for (; slot.cursor < plan.size() && plan[slot.cursor].level == level;
             ++slot.cursor) {
          const Step& step = plan[slot.cursor];
          if (!await(step.after_a, epoch, slot) ||
              !await(step.after_b, epoch, slot) ||
              aborted_.load(std::memory_order_relaxed)) {
            return;
          }
          exchange(encounters[step.pos], lane);
          done_[step.pos].store(epoch, std::memory_order_release);
          done_[step.pos].notify_all();
        }
      }
    }
  };
  try {
    walk();
  } catch (...) {
    abort_round(std::current_exception(), encounters.size());
  }
  telemetry::set_current_lane(0);
  if (trace != nullptr) {
    const std::int64_t end = trace->now_us();
    for (std::size_t lane = first; lane < shards_; lane += stride) {
      slots_[lane].end_us = end;
    }
  }
}

void ShardKernel::run_round(const std::vector<Encounter>& encounters,
                            const ExchangeFn& exchange) {
  ++stats_.rounds;
  telemetry::Span round_span(telemetry_, "kernel.round");
  round_span.set_arg(encounters.size());
  if (shards_ == 1) {
    // Serial fast path: the encounter list in sequence order *is* the
    // pre-shard runner's loop body. No pool, no levels, no waits.
    for (const Encounter& e : encounters) exchange(e, 0);
    stats_.local += encounters.size();
    if (!encounters.empty()) ++stats_.levels;
    return;
  }
  if (encounters.empty()) return;
  plan_round(encounters);

  const std::size_t n = encounters.size();
  if (n > done_capacity_) {
    done_capacity_ = std::max(n, 2 * done_capacity_);
    done_ = std::make_unique<std::atomic<std::uint32_t>[]>(done_capacity_);
    epoch_ = 0;
  }
  if (++epoch_ == kAbortMark) {
    for (std::size_t p = 0; p < done_capacity_; ++p) done_[p].store(0);
    epoch_ = 1;
  }
  aborted_.store(false);
  error_ = nullptr;

  telemetry::TraceBuffer* trace =
      telemetry_ != nullptr && telemetry_->tracing() ? &telemetry_->trace()
                                                     : nullptr;
  const std::size_t workers =
      pool_ == nullptr ? 1 : std::min(shards_, pool_->thread_count());
  if (workers == 1) {
    run_worker(0, 1, encounters, exchange, trace);
  } else {
    pool_->parallel_for(workers, [&](std::size_t t) {
      run_worker(t, workers, encounters, exchange, trace);
    });
  }

  if (trace != nullptr) {
    for (std::size_t lane = 0; lane < shards_; ++lane) {
      const LaneSlot& slot = slots_[lane];
      trace->record_arg("kernel.lane", slot.start_us,
                        slot.end_us - slot.start_us,
                        static_cast<std::uint64_t>(slot.wait_ns / 1000),
                        static_cast<std::uint32_t>(lane + 1));
    }
  }
  if (aborted_.load()) {
    // Clear the abort marks so a later round's waiter never sleeps on a
    // value that abort_round would not change.
    for (std::size_t p = 0; p < n; ++p) done_[p].store(0);
    std::rethrow_exception(error_);
  }
}

void ShardKernel::for_each_node(const NodeFn& fn) {
  if (shards_ == 1) {
    for (PeerId id = 0; id < population_; ++id) fn(id, 0);
    return;
  }
  // Bracket every lane with the thread-local lane index so registry writes
  // land in the executing lane's block. Reset to 0 afterwards: pool workers
  // may later run tasks for other runners, and the inline path returns to
  // simulator-thread (lane 0) semantics.
  const auto run_lane = [&](std::size_t s) {
    telemetry::set_current_lane(s);
    for (std::size_t id = s; id < population_; id += shards_) {
      fn(static_cast<PeerId>(id), s);
    }
    telemetry::set_current_lane(0);
  };
  if (pool_ == nullptr) {
    for (std::size_t s = 0; s < shards_; ++s) run_lane(s);
  } else {
    pool_->parallel_for(shards_, run_lane);
  }
}

}  // namespace tribvote::sim
