#include "topology/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "obs/obs.h"

namespace atmx {
namespace {

TEST(WorkerTeamTest, SingleThreadRunsInline) {
  WorkerTeam team(0, 1);
  EXPECT_EQ(team.size(), 1);
  int calls = 0;
  team.ParallelRun([&](int idx) {
    EXPECT_EQ(idx, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerTeamTest, AllThreadsParticipate) {
  WorkerTeam team(0, 4);
  std::vector<std::atomic<int>> hits(4);
  team.ParallelRun([&](int idx) { hits[idx].fetch_add(1); });
  for (int i = 0; i < 4; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(WorkerTeamTest, ReusableAcrossJobs) {
  WorkerTeam team(0, 3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    team.ParallelRun([&](int) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 60);
}

TEST(WorkerTeamTest, ParallelForCoversRangeExactlyOnce) {
  WorkerTeam team(1, 4);
  std::vector<std::atomic<int>> hits(1000);
  team.ParallelFor(1000, 17, [&](index_t lo, index_t hi) {
    EXPECT_LE(hi - lo, 17);
    for (index_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerTeamTest, ParallelForEmptyRange) {
  WorkerTeam team(0, 2);
  int calls = 0;
  team.ParallelFor(0, 8, [&](index_t, index_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(TeamSchedulerTest, StaticModeRunsEveryTaskOnItsHomeTeam) {
  TeamScheduler scheduler(3, 2);
  EXPECT_EQ(scheduler.num_teams(), 3);
  ScheduleOptions options;
  options.work_stealing = false;
  ScheduleStats stats;
  std::vector<std::atomic<int>> runs(30);
  std::vector<std::atomic<int>> team_of(30);
  scheduler.RunTaskGraph(
      30, {}, {}, [](index_t task) { return static_cast<int>(task % 3); },
      [&](WorkerTeam& team, index_t task) {
        runs[task].fetch_add(1);
        team_of[task].store(team.team_id());
      },
      options, &stats);
  for (int t = 0; t < 30; ++t) {
    EXPECT_EQ(runs[t].load(), 1);
    EXPECT_EQ(team_of[t].load(), t % 3);
  }
  EXPECT_EQ(stats.TotalSteals(), 0u);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(stats.executed_per_team[t], 10);
  }
}

TEST(TeamSchedulerTest, StealingRunsEveryTaskExactlyOnce) {
  TeamScheduler scheduler(3, 2);
  std::vector<std::atomic<int>> runs(30);
  scheduler.RunTaskGraph(
      30, {}, {}, [](index_t task) { return static_cast<int>(task % 3); },
      [&](WorkerTeam&, index_t task) { runs[task].fetch_add(1); },
      ScheduleOptions(), nullptr);
  for (int t = 0; t < 30; ++t) EXPECT_EQ(runs[t].load(), 1);
}

TEST(TeamSchedulerTest, TasksCanUseIntraTeamParallelism) {
  TeamScheduler scheduler(2, 3);
  std::atomic<long> total{0};
  scheduler.RunTaskGraph(
      8, {}, {}, [](index_t task) { return static_cast<int>(task % 2); },
      [&](WorkerTeam& team, index_t) {
        team.ParallelFor(100, 10, [&](index_t lo, index_t hi) {
          total.fetch_add(hi - lo);
        });
      },
      ScheduleOptions(), nullptr);
  EXPECT_EQ(total.load(), 800);
}

TEST(TeamSchedulerTest, NoTasks) {
  TeamScheduler scheduler(2, 1);
  ScheduleOptions options;
  options.work_stealing = false;
  ScheduleStats stats;
  scheduler.RunTaskGraph(
      0, {}, {}, [](index_t) { return 0; },
      [](WorkerTeam&, index_t) { FAIL() << "no task should run"; }, options,
      &stats);
  ASSERT_EQ(stats.executed_per_team.size(), 2u);
  EXPECT_EQ(stats.executed_per_team[0] + stats.executed_per_team[1], 0);
}

TEST(TeamSchedulerTest, TaskGraphRespectsDependencyOrder) {
  // Diamond per lane: 0 -> {1, 2} -> 3 (x4 lanes), plus an independent
  // source. Every task must observe all predecessors completed.
  TeamScheduler scheduler(2, 2);
  constexpr index_t kLanes = 4;
  const index_t num_tasks = kLanes * 4 + 1;
  std::vector<index_t> deps(num_tasks, 0);
  std::vector<std::vector<index_t>> successors(num_tasks);
  for (index_t lane = 0; lane < kLanes; ++lane) {
    const index_t base = lane * 4;
    successors[base] = {base + 1, base + 2};
    deps[base + 1] = 1;
    deps[base + 2] = 1;
    successors[base + 1] = {base + 3};
    successors[base + 2] = {base + 3};
    deps[base + 3] = 2;
  }
  std::vector<std::atomic<int>> done(num_tasks);
  std::vector<std::atomic<int>> runs(num_tasks);
  std::atomic<bool> order_ok{true};
  ScheduleStats stats;
  scheduler.RunTaskGraph(
      num_tasks, deps, successors,
      [](index_t task) { return static_cast<int>(task % 2); },
      [&](WorkerTeam&, index_t task) {
        if (task % 4 != 0 && task < kLanes * 4) {
          const index_t base = (task / 4) * 4;
          if (task % 4 == 3) {
            if (!done[base + 1].load() || !done[base + 2].load()) {
              order_ok.store(false);
            }
          } else if (!done[base].load()) {
            order_ok.store(false);
          }
        }
        runs[task].fetch_add(1);
        done[task].store(1);
      },
      ScheduleOptions(), &stats);
  EXPECT_TRUE(order_ok.load());
  index_t executed = 0;
  for (index_t t = 0; t < num_tasks; ++t) {
    EXPECT_EQ(runs[t].load(), 1) << "task " << t;
    executed += runs[t].load();
  }
  EXPECT_EQ(executed, num_tasks);
  index_t stats_total = 0;
  for (index_t n : stats.executed_per_team) stats_total += n;
  EXPECT_EQ(stats_total, num_tasks);
}

TEST(TeamSchedulerTest, TaskGraphStaticModeRunsChainSequentially) {
  // A pure chain 0 -> 1 -> ... -> 9 with stealing off: only one task is
  // ever ready, so completions must strictly increase.
  TeamScheduler scheduler(3, 1);
  const index_t n = 10;
  std::vector<index_t> deps(n, 1);
  deps[0] = 0;
  std::vector<std::vector<index_t>> successors(n);
  for (index_t t = 0; t + 1 < n; ++t) successors[t] = {t + 1};
  ScheduleOptions options;
  options.work_stealing = false;
  std::vector<index_t> sequence;
  Mutex mu;
  scheduler.RunTaskGraph(
      n, deps, successors,
      [](index_t task) { return static_cast<int>(task % 3); },
      [&](WorkerTeam&, index_t task) {
        MutexLock lock(mu);
        sequence.push_back(task);
      },
      options, nullptr);
  ASSERT_EQ(sequence.size(), static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t) EXPECT_EQ(sequence[t], t);
}

TEST(TeamSchedulerTest, TaskGraphAllReadyBehavesLikeRunTasks) {
  // Explicit all-zero dependency counts describe the same independent batch
  // as empty dependency arrays.
  TeamScheduler scheduler(2, 1);
  const index_t n = 16;
  std::vector<index_t> deps(n, 0);
  std::vector<std::vector<index_t>> successors(n);
  std::vector<std::atomic<int>> runs(n);
  scheduler.RunTaskGraph(
      n, deps, successors,
      [](index_t task) { return static_cast<int>(task % 2); },
      [&](WorkerTeam&, index_t task) { runs[task].fetch_add(1); },
      ScheduleOptions(), nullptr);
  for (index_t t = 0; t < n; ++t) EXPECT_EQ(runs[t].load(), 1);
}

TEST(TeamSchedulerTest, TaskGraphEmpty) {
  TeamScheduler scheduler(2, 1);
  scheduler.RunTaskGraph(
      0, {}, {}, [](index_t) { return 0; },
      [](WorkerTeam&, index_t) { FAIL() << "no task should run"; },
      ScheduleOptions(), nullptr);
}

TEST(TeamSchedulerTest, TaskGraphAdmitGateLimitsConcurrency) {
  // Admission gate modeling a 1-slot memory budget: only one task may be
  // in flight at a time. Every task must still run exactly once, and the
  // gate's view of concurrency must never exceed the slot count.
  TeamScheduler scheduler(2, 2);
  const index_t n = 24;
  std::vector<index_t> deps(n, 0);
  std::vector<std::vector<index_t>> successors(n);
  std::atomic<int> slots{1};
  std::atomic<bool> over_admitted{false};
  std::vector<std::atomic<int>> runs(n);
  ScheduleOptions options;
  options.admit = [&slots](index_t, bool force) {
    int have = slots.load(std::memory_order_relaxed);
    while (have > 0) {
      if (slots.compare_exchange_weak(have, have - 1,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
    if (force) {
      slots.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  scheduler.RunTaskGraph(
      n, deps, successors,
      [](index_t task) { return static_cast<int>(task % 2); },
      [&](WorkerTeam&, index_t task) {
        if (slots.load(std::memory_order_relaxed) < 0) {
          over_admitted.store(true, std::memory_order_relaxed);
        }
        runs[task].fetch_add(1);
        slots.fetch_add(1, std::memory_order_relaxed);
      },
      options, nullptr);
  for (index_t t = 0; t < n; ++t) EXPECT_EQ(runs[t].load(), 1);
  EXPECT_FALSE(over_admitted.load());
}

TEST(TeamSchedulerTest, TaskGraphAdmitAlwaysRejectFallsBackToForced) {
  // A gate that refuses every speculative admission must not deadlock:
  // whenever nothing is in flight and every queue is drained, the
  // scheduler force-admits the oldest parked task, so the graph still
  // completes — one forced task at a time.
  TeamScheduler scheduler(2, 1);
  const index_t n = 8;
  std::vector<index_t> deps(n, 0);
  std::vector<std::vector<index_t>> successors(n);
  std::atomic<int> forced_count{0};
  std::vector<std::atomic<int>> runs(n);
  ScheduleOptions options;
  options.admit = [&forced_count](index_t, bool force) {
    if (force) {
      forced_count.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  };
  scheduler.RunTaskGraph(
      n, deps, successors,
      [](index_t task) { return static_cast<int>(task % 2); },
      [&](WorkerTeam&, index_t task) { runs[task].fetch_add(1); },
      options, nullptr);
  for (index_t t = 0; t < n; ++t) EXPECT_EQ(runs[t].load(), 1);
  // Every task needed the forced path.
  EXPECT_EQ(forced_count.load(), static_cast<int>(n));
}

TEST(TeamSchedulerTest, TaskGraphAdmitGateHonorsDependencies) {
  // Chain with a flaky gate (rejects each task's first attempt): parked
  // tasks are retried after completions and dependency order still holds.
  TeamScheduler scheduler(2, 2);
  const index_t n = 6;
  std::vector<index_t> deps(n, 1);
  deps[0] = 0;
  std::vector<std::vector<index_t>> successors(n);
  for (index_t t = 0; t + 1 < n; ++t) successors[t] = {t + 1};
  std::vector<std::atomic<int>> attempts(n);
  std::vector<index_t> sequence;
  Mutex mu;
  ScheduleOptions options;
  options.admit = [&attempts](index_t task, bool force) {
    if (force) return true;
    return attempts[task].fetch_add(1, std::memory_order_relaxed) > 0;
  };
  scheduler.RunTaskGraph(
      n, deps, successors,
      [](index_t task) { return static_cast<int>(task % 2); },
      [&](WorkerTeam&, index_t task) {
        MutexLock lock(mu);
        sequence.push_back(task);
      },
      options, nullptr);
  ASSERT_EQ(sequence.size(), static_cast<std::size_t>(n));
  for (index_t t = 0; t < n; ++t) EXPECT_EQ(sequence[t], t);
}

#if defined(ATMX_OBS_ENABLED)
TEST(TeamSchedulerTest, EveryBatchReportsSchedulerTelemetry) {
  // An independent batch and a graph batch run the same loop, so both
  // count their tasks and set the per-batch gauges.
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& tasks = registry.GetCounter("threadpool.tasks");
  obs::Gauge& depth_max = registry.GetGauge("threadpool.queue_depth.max");
  obs::Gauge& depth_min = registry.GetGauge("threadpool.queue_depth.min");
  obs::Gauge& makespan = registry.GetGauge("threadpool.makespan_seconds");
  obs::Gauge& busy0 = registry.GetGauge("threadpool.team.0.busy_seconds");
  const auto clear_gauges = [&] {
    for (obs::Gauge* g : {&depth_max, &depth_min, &makespan, &busy0}) {
      g->Set(-1.0);
    }
  };
  const auto work = [](WorkerTeam&, index_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  TeamScheduler scheduler(2, 1);

  // Independent batch: five tasks homed on team 0, two on team 1.
  clear_gauges();
  std::uint64_t before = tasks.Value();
  scheduler.RunTaskGraph(
      7, {}, {}, [](index_t task) { return task < 5 ? 0 : 1; }, work,
      ScheduleOptions(), nullptr);
  EXPECT_EQ(tasks.Value() - before, 7u);
  EXPECT_EQ(depth_max.Value(), 5.0);
  EXPECT_EQ(depth_min.Value(), 2.0);
  EXPECT_GT(makespan.Value(), 0.0);
  EXPECT_GT(busy0.Value(), 0.0);

  // Graph batch: 0 -> 1 -> 2 plus sources 3 and 4. Queue depths cover the
  // initially ready tasks {0, 3, 4}, homed on teams 0, 1 and 0.
  const std::vector<index_t> deps = {0, 1, 1, 0, 0};
  const std::vector<std::vector<index_t>> successors = {{1}, {2}, {}, {}, {}};
  clear_gauges();
  before = tasks.Value();
  scheduler.RunTaskGraph(
      5, deps, successors,
      [](index_t task) { return static_cast<int>(task % 2); }, work,
      ScheduleOptions(), nullptr);
  EXPECT_EQ(tasks.Value() - before, 5u);
  EXPECT_EQ(depth_max.Value(), 2.0);
  EXPECT_EQ(depth_min.Value(), 1.0);
  EXPECT_GT(makespan.Value(), 0.0);
  EXPECT_GT(busy0.Value(), 0.0);
}
#endif  // ATMX_OBS_ENABLED

}  // namespace
}  // namespace atmx
