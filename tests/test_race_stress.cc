// TSan-targeted concurrency stress: hammers the WorkerTeam broadcast
// protocol, the per-team task queues of TeamScheduler, and concurrent
// AtMult tile accumulation with randomized schedules. The assertions are
// deliberately simple (exactly-once counters, numeric equality against a
// reference product) — the point is to generate enough conflicting
// schedules that ThreadSanitizer observes every lock-protocol edge.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "gen/synthetic.h"
#include "kernels/sparse_kernels.h"
#include "ops/atmult.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"
#include "topology/thread_pool.h"

namespace atmx {
namespace {

using ::atmx::testing::RandomCoo;

TEST(RaceStressTest, ParallelRunReuseChurn) {
  WorkerTeam team(/*team_id=*/0, /*num_threads=*/4);
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(team.size()));
  for (int round = 0; round < 400; ++round) {
    team.ParallelRun([&](int thread) {
      hits[static_cast<std::size_t>(thread)].fetch_add(
          1, std::memory_order_relaxed);
    });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 400);
}

TEST(RaceStressTest, ParallelForRandomizedShapes) {
  WorkerTeam team(/*team_id=*/0, /*num_threads=*/3);
  Rng rng(42);
  for (int round = 0; round < 200; ++round) {
    const index_t n = 1 + static_cast<index_t>(rng.NextBounded(500));
    const index_t grain = 1 + static_cast<index_t>(rng.NextBounded(32));
    std::vector<std::atomic<std::uint32_t>> visited(
        static_cast<std::size_t>(n));
    team.ParallelFor(n, grain, [&](index_t lo, index_t hi) {
      EXPECT_LE(hi - lo, grain);
      for (index_t i = lo; i < hi; ++i) {
        visited[static_cast<std::size_t>(i)].fetch_add(
            1, std::memory_order_relaxed);
      }
    });
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(visited[static_cast<std::size_t>(i)].load(), 1u)
          << "index " << i << " in round " << round;
    }
  }
}

TEST(RaceStressTest, WorkerTeamConstructDestroyChurn) {
  // The constructor/destructor handshake (thread spawn, shutdown broadcast,
  // join) must be clean even when a job runs between them.
  for (int round = 0; round < 120; ++round) {
    WorkerTeam team(round % 4, 1 + round % 5);
    std::atomic<int> ran{0};
    team.ParallelRun([&](int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), team.size());
  }
}

TEST(RaceStressTest, SchedulerRandomizedHomes) {
  Rng rng(7);
  for (int round = 0; round < 60; ++round) {
    const int teams = 1 + static_cast<int>(rng.NextBounded(4));
    const int threads = 1 + static_cast<int>(rng.NextBounded(3));
    const index_t num_tasks =
        static_cast<index_t>(rng.NextBounded(200));
    // Randomized, uneven team assignment — some teams may get nothing.
    std::vector<int> homes(static_cast<std::size_t>(num_tasks));
    for (auto& h : homes) h = static_cast<int>(rng.NextBounded(teams));

    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(num_tasks));
    TeamScheduler scheduler(teams, threads);
    ScheduleOptions options;
    options.work_stealing = false;
    scheduler.RunTaskGraph(
        num_tasks, {}, {},
        [&](index_t task) { return homes[static_cast<std::size_t>(task)]; },
        [&](WorkerTeam& team, index_t task) {
          EXPECT_EQ(team.team_id(), homes[static_cast<std::size_t>(task)]);
          // Nested intra-task parallelism on the owning team.
          team.ParallelFor(8, 2, [&](index_t, index_t) {});
          runs[static_cast<std::size_t>(task)].fetch_add(1);
        },
        options, nullptr);
    for (index_t t = 0; t < num_tasks; ++t) {
      ASSERT_EQ(runs[static_cast<std::size_t>(t)].load(), 1)
          << "task " << t << " in round " << round;
    }
  }
}

TEST(RaceStressTest, SchedulerStealingRandomizedChurn) {
  // Same exactly-once property under the work-stealing protocol: skewed
  // home assignments force steals, nested ParallelFor keeps the executing
  // team's broadcast path busy while thieves hit the victim deques.
  Rng rng(13);
  for (int round = 0; round < 60; ++round) {
    const int teams = 2 + static_cast<int>(rng.NextBounded(3));
    const index_t num_tasks = static_cast<index_t>(rng.NextBounded(200));
    // Skew toward team 0 so victim queues actually drain cross-team.
    std::vector<int> homes(static_cast<std::size_t>(num_tasks));
    for (auto& h : homes) {
      h = rng.NextBounded(4) == 0 ? static_cast<int>(rng.NextBounded(teams))
                                  : 0;
    }
    std::vector<std::atomic<int>> runs(static_cast<std::size_t>(num_tasks));
    TeamScheduler scheduler(teams, 2);
    ScheduleOptions options;
    options.work_stealing = true;
    options.cost_of = [](index_t task) {
      return static_cast<double>(task % 7);
    };
    ScheduleStats stats;
    scheduler.RunTaskGraph(
        num_tasks, {}, {},
        [&](index_t task) { return homes[static_cast<std::size_t>(task)]; },
        [&](WorkerTeam& team, index_t task) {
          team.ParallelFor(8, 2, [&](index_t, index_t) {});
          runs[static_cast<std::size_t>(task)].fetch_add(1);
        },
        options, &stats);
    index_t executed_total = 0;
    for (index_t e : stats.executed_per_team) executed_total += e;
    ASSERT_EQ(executed_total, num_tasks) << "round " << round;
    for (index_t t = 0; t < num_tasks; ++t) {
      ASSERT_EQ(runs[static_cast<std::size_t>(t)].load(), 1)
          << "task " << t << " in round " << round;
    }
  }
}

TEST(RaceStressTest, ParallelRunSpinWakeChurn) {
  // Tiny back-to-back jobs land in WorkerLoop's bounded-spin window; two
  // teams churning concurrently also exercise the spin -> condvar fallback
  // when the gap between jobs exceeds the spin budget.
  WorkerTeam team_a(0, 3);
  WorkerTeam team_b(1, 3);
  std::atomic<int> total{0};
  std::thread driver_b([&] {
    for (int round = 0; round < 600; ++round) {
      team_b.ParallelRun([&](int) { total.fetch_add(1); });
    }
  });
  for (int round = 0; round < 600; ++round) {
    team_a.ParallelRun([&](int) { total.fetch_add(1); });
  }
  driver_b.join();
  EXPECT_EQ(total.load(), 600 * (team_a.size() + team_b.size()));
}

TEST(RaceStressTest, SchedulerReuseAcrossBatches) {
  TeamScheduler scheduler(3, 2);
  std::atomic<index_t> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    scheduler.RunTaskGraph(
        17, {}, {}, [&](index_t task) { return static_cast<int>(task % 3); },
        [&](WorkerTeam&, index_t) { total.fetch_add(1); }, ScheduleOptions(),
        nullptr);
  }
  EXPECT_EQ(total.load(), 17 * 50);
}

TEST(RaceStressTest, ConcurrentAtMultTileAccumulation) {
  // Several AtMult invocations run concurrently, each with its own
  // scheduler and block_counts grid; every result must match the serial
  // reference product exactly in structure and value.
  AtmConfig config;
  config.b_atomic = 8;
  config.llc_bytes = 1 << 18;
  config.num_sockets = 2;
  config.cores_per_socket = 2;

  CooMatrix a_coo = GenerateBandedBlocks(72, 6, 0.5, 4, /*seed=*/11);
  CooMatrix b_coo = GenerateDiagonalDenseBlocks(72, 3, 8, 0.9, 150,
                                                /*seed=*/12);
  ATMatrix a = PartitionToAtm(a_coo, config);
  ATMatrix b = PartitionToAtm(b_coo, config);
  const DenseMatrix expected =
      CsrToDense(SpGemmCsr(CooToCsr(a_coo), CooToCsr(b_coo)));

  const AtMult op(config);
  constexpr int kCallers = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 4; ++round) {
        ATMatrix c = op.Multiply(a, b);
        if (!c.CheckValid() ||
            MaxAbsDiff(expected, CsrToDense(c.ToCsr())) > 1e-9) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(RaceStressTest, ConcurrentMixedOperandMultiplies) {
  // Different operand pairs in flight at once, exercising the JIT
  // conversion cache and both dense and sparse result paths concurrently.
  AtmConfig config;
  config.b_atomic = 8;
  config.llc_bytes = 1 << 18;
  config.num_sockets = 2;
  config.cores_per_socket = 2;

  CooMatrix sparse_coo = RandomCoo(64, 64, 400, /*seed=*/21);
  DenseMatrix dense = GenerateFullDense(64, 64, /*seed=*/22);
  ATMatrix sparse_atm = PartitionToAtm(sparse_coo, config);
  ATMatrix dense_atm = PartitionToAtm(DenseToCoo(dense), config);

  const DenseMatrix expected_ss =
      CsrToDense(SpGemmCsr(CooToCsr(sparse_coo), CooToCsr(sparse_coo)));
  const DenseMatrix expected_sd =
      CsrToDense(SpGemmCsr(CooToCsr(sparse_coo), DenseToCsr(dense)));

  const AtMult op(config);
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const bool second_dense = (t + round) % 2 == 0;
        ATMatrix c = second_dense ? op.Multiply(sparse_atm, dense_atm)
                                  : op.Multiply(sparse_atm, sparse_atm);
        const DenseMatrix& expected =
            second_dense ? expected_sd : expected_ss;
        if (!c.CheckValid() ||
            MaxAbsDiff(expected, CsrToDense(c.ToCsr())) > 1e-9) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace atmx
