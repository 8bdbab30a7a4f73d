// Unit tests for the dspot_parallel runtime (ThreadPool, TaskGroup,
// ParallelFor/ParallelMap) plus the end-to-end determinism contract:
// FitDspot must produce bit-identical results at any thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/dspot.h"
#include "datagen/catalog.h"
#include "datagen/generator.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace dspot {
namespace {

TEST(EffectiveNumThreads, ResolvesZeroToHardware) {
  EXPECT_GE(EffectiveNumThreads(0), 1u);
  EXPECT_EQ(EffectiveNumThreads(1), 1u);
  EXPECT_EQ(EffectiveNumThreads(5), 5u);
  EXPECT_EQ(EffectiveNumThreads(1 << 20), ThreadPool::kMaxWorkers);
}

TEST(SplitMix64, MixesNearbyIndices) {
  // Child seeds for consecutive task indices must not collide or share
  // obvious structure.
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 1000; ++i) {
    outputs.insert(SplitMix64(i));
  }
  EXPECT_EQ(outputs.size(), 1000u);
  Random root(42);
  EXPECT_NE(root.Child(0).seed(), root.Child(1).seed());
  EXPECT_EQ(root.Child(3).seed(), Random(42).Child(3).seed());
}

TEST(ThreadPool, StartsAndStops) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  // Destructor joins parked workers without any task ever submitted.
}

TEST(ThreadPool, DrainsQueuedTasksOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, RunOneTaskHelpsFromNonWorkerThread) {
  ThreadPool pool(1);
  // Occupy the only worker so the queue cannot drain without help. Main
  // must not touch the queues until the worker has claimed this task —
  // otherwise main's own RunOneTask below could pop it and block forever.
  std::atomic<bool> occupied{false};
  std::atomic<bool> release{false};
  TaskGroup group(&pool);
  group.Run([&occupied, &release] {
    occupied.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (!occupied.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  while (count.load() == 0) {
    // The worker is busy; this (non-worker) thread must be able to pick
    // the task up itself.
    pool.RunOneTask();
  }
  EXPECT_EQ(count.load(), 1);
  release.store(true);
  group.Wait();
  EXPECT_FALSE(pool.RunOneTask());  // queues are empty again
}

TEST(ThreadPool, StealsUnderSkewedLoad) {
  constexpr int kSubtasks = 64;
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  // The producer enqueues all subtasks onto its own deque and then stays
  // busy until every one of them has run: each subtask can only have been
  // stolen by another worker (or the waiting main thread).
  group.Run([&pool, &count] {
    TaskGroup subtasks(&pool);
    for (int i = 0; i < kSubtasks; ++i) {
      subtasks.Run([&count] { count.fetch_add(1); });
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (count.load() < kSubtasks &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    subtasks.Wait();
  });
  group.Wait();
  EXPECT_EQ(count.load(), kSubtasks);
}

TEST(TaskGroup, RunsInlineWithoutPool) {
  TaskGroup group(nullptr);
  int value = 0;
  group.Run([&value] { value = 7; });
  EXPECT_EQ(value, 7);  // ran synchronously, before Wait
  group.Wait();
}

TEST(TaskGroup, PropagatesFirstException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> completed{0};
  group.Run([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 8; ++i) {
    group.Run([&completed] { completed.fetch_add(1); });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
  // The failure did not tear down in-flight work.
  EXPECT_EQ(completed.load(), 8);
  // A second Wait does not re-throw the consumed error.
  group.Wait();
}

TEST(TaskGroup, PropagatesExceptionInline) {
  TaskGroup group(nullptr);
  group.Run([] { throw std::logic_error("inline failure"); });
  EXPECT_THROW(group.Wait(), std::logic_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{3}, size_t{8}}) {
    constexpr size_t kN = 1000;
    std::vector<int> hits(kN, 0);
    ParallelOptions options;
    options.num_threads = threads;
    ParallelFor(kN, options, [&hits](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads
                            << " threads";
    }
  }
}

TEST(ParallelFor, GrainKeepsSmallRangesInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(16);
  ParallelOptions options;
  options.num_threads = 8;
  options.grain = 64;  // 16 <= 64: must run serially on the caller
  ParallelFor(ids.size(), options,
              [&ids](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const std::thread::id& id : ids) {
    EXPECT_EQ(id, caller);
  }
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 32;
  std::vector<std::vector<int>> hits(kOuter, std::vector<int>(kInner, 0));
  ParallelOptions options;
  options.num_threads = 4;
  ParallelFor(kOuter, options, [&hits, &options](size_t i) {
    ParallelFor(kInner, options,
                [&hits, i](size_t j) { ++hits[i][j]; });
  });
  for (size_t i = 0; i < kOuter; ++i) {
    for (size_t j = 0; j < kInner; ++j) {
      ASSERT_EQ(hits[i][j], 1) << "slot (" << i << ", " << j << ")";
    }
  }
}

TEST(ParallelMap, CollectsResultsInIndexOrder) {
  ParallelOptions serial;
  serial.num_threads = 1;
  ParallelOptions wide;
  wide.num_threads = 8;
  // Per-index child engines: the value of slot i depends only on i, so
  // the map is reproducible at any thread count.
  const auto value_at = [](size_t i) -> StatusOr<double> {
    Random rng = Random(99).Child(i);
    return rng.Uniform() + static_cast<double>(i);
  };
  auto a = ParallelMap<double>(256, serial, value_at);
  auto b = ParallelMap<double>(256, wide, value_at);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), 256u);
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ((*a)[i], (*b)[i]) << "slot " << i;
    ASSERT_GE((*a)[i], static_cast<double>(i));
  }
}

TEST(ParallelMap, ReportsLowestFailingIndexDeterministically) {
  ParallelOptions options;
  options.num_threads = 8;
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto result = ParallelMap<int>(64, options, [](size_t i) -> StatusOr<int> {
      if (i == 3 || i == 47) {
        return Status::NumericalError("failure at index " +
                                      std::to_string(i));
      }
      return static_cast<int>(i);
    });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kNumericalError);
    EXPECT_EQ(result.status().message(), "failure at index 3");
  }
}

TEST(ParallelMap, PreFiredTokenReturnsCancelled) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ParallelOptions options;
    options.num_threads = threads;
    options.cancel = CancellationToken::Cancellable();
    options.cancel.Cancel();
    std::atomic<int> calls{0};
    auto result =
        ParallelMap<int>(16, options, [&calls](size_t i) -> StatusOr<int> {
          calls.fetch_add(1);
          return static_cast<int>(i);
        });
    ASSERT_FALSE(result.ok()) << threads << " threads";
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(calls.load(), 0);
  }
}

TEST(ParallelMap, TokenFiredMidMapReturnsCancelled) {
  ParallelOptions options;
  options.num_threads = 4;
  const CancellationToken token = CancellationToken::Cancellable();
  options.cancel = token;
  // Index 0 runs first in the first block claimed and fires the token;
  // every other index waits for it. Each runner then finishes at most the
  // block it holds, so most of the 64 indices are never run, and index 0
  // itself succeeds: the reported error is an unrun index's.
  auto result =
      ParallelMap<int>(64, options, [&token](size_t i) -> StatusOr<int> {
        if (i == 0) {
          token.Cancel();
        } else {
          while (!token.cancelled()) std::this_thread::yield();
        }
        return static_cast<int>(i);
      });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

/// Asserts that two pipeline results are bit-identical — the parallel
/// runtime's core guarantee (slot-ordered collection, index-ordered
/// reductions). EXPECT_EQ on doubles is exact equality, not approximate.
void ExpectIdenticalResults(const DspotResult& a, const DspotResult& b) {
  EXPECT_EQ(a.total_cost_bits, b.total_cost_bits);
  ASSERT_EQ(a.params.global.size(), b.params.global.size());
  for (size_t i = 0; i < a.params.global.size(); ++i) {
    const KeywordGlobalParams& pa = a.params.global[i];
    const KeywordGlobalParams& pb = b.params.global[i];
    EXPECT_EQ(pa.population, pb.population) << "keyword " << i;
    EXPECT_EQ(pa.beta, pb.beta) << "keyword " << i;
    EXPECT_EQ(pa.delta, pb.delta) << "keyword " << i;
    EXPECT_EQ(pa.gamma, pb.gamma) << "keyword " << i;
    EXPECT_EQ(pa.i0, pb.i0) << "keyword " << i;
    EXPECT_EQ(pa.growth_rate, pb.growth_rate) << "keyword " << i;
    EXPECT_EQ(pa.growth_start, pb.growth_start) << "keyword " << i;
  }
  ASSERT_EQ(a.params.shocks.size(), b.params.shocks.size());
  for (size_t k = 0; k < a.params.shocks.size(); ++k) {
    const Shock& sa = a.params.shocks[k];
    const Shock& sb = b.params.shocks[k];
    EXPECT_EQ(sa.keyword, sb.keyword) << "shock " << k;
    EXPECT_EQ(sa.period, sb.period) << "shock " << k;
    EXPECT_EQ(sa.start, sb.start) << "shock " << k;
    EXPECT_EQ(sa.width, sb.width) << "shock " << k;
    EXPECT_EQ(sa.base_strength, sb.base_strength) << "shock " << k;
    EXPECT_EQ(sa.global_strengths, sb.global_strengths) << "shock " << k;
    ASSERT_EQ(sa.local_strengths.rows(), sb.local_strengths.rows());
    ASSERT_EQ(sa.local_strengths.cols(), sb.local_strengths.cols());
    for (size_t m = 0; m < sa.local_strengths.rows(); ++m) {
      for (size_t j = 0; j < sa.local_strengths.cols(); ++j) {
        EXPECT_EQ(sa.local_strengths(m, j), sb.local_strengths(m, j))
            << "shock " << k << " occurrence " << m << " location " << j;
      }
    }
  }
  ASSERT_EQ(a.params.base_local.rows(), b.params.base_local.rows());
  ASSERT_EQ(a.params.base_local.cols(), b.params.base_local.cols());
  for (size_t i = 0; i < a.params.base_local.rows(); ++i) {
    for (size_t j = 0; j < a.params.base_local.cols(); ++j) {
      EXPECT_EQ(a.params.base_local(i, j), b.params.base_local(i, j));
      EXPECT_EQ(a.params.growth_local(i, j), b.params.growth_local(i, j));
    }
  }
  ASSERT_EQ(a.global_rmse.size(), b.global_rmse.size());
  for (size_t i = 0; i < a.global_rmse.size(); ++i) {
    EXPECT_EQ(a.global_rmse[i], b.global_rmse[i]) << "keyword " << i;
  }
}

TEST(ParallelFitDeterminism, FitDspotBitIdenticalAcrossThreadCounts) {
  GeneratorConfig config = GoogleTrendsConfig(11);
  config.n_ticks = 208;
  config.num_locations = 4;
  config.num_outlier_locations = 1;
  auto generated =
      GenerateTensor({GrammyScenario(), EbolaScenario()}, config);
  ASSERT_TRUE(generated.ok());

  DspotOptions options;
  options.global.max_outer_rounds = 2;  // keep the double fit affordable
  options.num_threads = 1;
  auto serial = FitDspot(generated->tensor, options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  options.num_threads = 8;
  auto parallel = FitDspot(generated->tensor, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ExpectIdenticalResults(*serial, *parallel);
}

}  // namespace
}  // namespace dspot
