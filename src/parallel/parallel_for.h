#ifndef DSPOT_PARALLEL_PARALLEL_FOR_H_
#define DSPOT_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "parallel/thread_pool.h"

namespace dspot {

/// Tuning knobs for the parallel loops below.
struct ParallelOptions {
  /// Worker threads to use: 0 = hardware concurrency, 1 = run serially on
  /// the calling thread (no pool involvement at all).
  size_t num_threads = 0;
  /// Minimum indices per task. Raising it trades load balance for lower
  /// scheduling overhead and larger per-task scratch reuse; a loop whose
  /// whole range fits in one grain runs inline.
  size_t grain = 1;
  /// Cooperative cancellation: once the token fires, runners stop
  /// claiming blocks (already-running block invocations finish) and the
  /// loop returns early, leaving unclaimed indices unprocessed. Inert by
  /// default. Long-running `fn` bodies should poll the same token.
  CancellationToken cancel;
};

/// Runs `fn(begin, end)` over a partition of [0, n) into contiguous
/// blocks of at least `options.grain` indices. Blocks are claimed by at
/// most `num_threads` concurrent runners through a shared atomic cursor
/// (self-scheduling), so skewed block costs rebalance automatically and
/// the configured thread count is honored even when the shared pool is
/// larger. Each `fn` invocation covers one block; a runner invokes it for
/// several blocks in sequence, so per-invocation scratch is amortized
/// over `grain` indices.
///
/// Determinism contract: `fn` must write only to slots derived from its
/// indices (and read only shared immutable state); then the aggregate
/// result is bit-identical for every `num_threads`, because each index is
/// processed exactly once and lands in the same slot regardless of which
/// thread claims it. Blocking calls inside `fn` may execute other queued
/// tasks on this thread (nested parallel sections do this by design).
template <typename BlockFn>
void ParallelForBlocks(size_t n, const ParallelOptions& options,
                       const BlockFn& fn) {
  if (n == 0) {
    return;
  }
  const size_t threads = EffectiveNumThreads(options.num_threads);
  const size_t grain = std::max<size_t>(options.grain, 1);
  if (options.cancel.cancelled()) {
    return;
  }
  if (threads <= 1 || n <= grain) {
    fn(0, n);
    return;
  }
  // ~4 blocks per runner keeps the tail short without shredding the range
  // below the grain size.
  const size_t target_blocks = threads * 4;
  const size_t block_size =
      std::max(grain, (n + target_blocks - 1) / target_blocks);
  const size_t blocks = (n + block_size - 1) / block_size;
  const size_t runners = std::min(threads, blocks);

  ThreadPool& pool = ThreadPool::Shared(threads);
  std::atomic<size_t> next_block{0};
  // Cancellation-aware group: runners not yet started are dropped at
  // dequeue time, and started runners re-check the token before each
  // block claim, so a cancelled loop drains within one block.
  TaskGroup group(&pool, options.cancel);
  for (size_t r = 0; r < runners; ++r) {
    group.Run([&next_block, &fn, &options, n, blocks, block_size] {
      for (;;) {
        if (options.cancel.cancelled()) {
          return;
        }
        const size_t b = next_block.fetch_add(1, std::memory_order_relaxed);
        if (b >= blocks) {
          return;
        }
        const size_t begin = b * block_size;
        fn(begin, std::min(n, begin + block_size));
      }
    });
  }
  group.Wait();
}

/// Runs `fn(i)` for every i in [0, n). See ParallelForBlocks for the
/// scheduling and determinism contract.
template <typename Fn>
void ParallelFor(size_t n, const ParallelOptions& options, const Fn& fn) {
  ParallelForBlocks(n, options, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
  });
}

/// Maps `fn(i, Scratch*) -> StatusOr<T>` over [0, n) and keeps *every*
/// per-index outcome: slot i holds fn(i)'s StatusOr verbatim, and an index
/// skipped by a cancelled token (see ParallelOptions::cancel) comes back as
/// Status::Cancelled. Each block of indices (see ParallelForBlocks)
/// default-constructs one `Scratch` and lends it to its indices in turn.
/// Which indices share a scratch depends on the thread count, so a body
/// must not let what an earlier index left in the scratch change its values
/// (caches keyed exactly, buffers resized per use); then slot contents are
/// bit-identical at any thread count.
template <typename T, typename Scratch, typename Fn>
std::vector<StatusOr<T>> ParallelTryMapWithScratch(
    size_t n, const ParallelOptions& options, const Fn& fn) {
  std::vector<StatusOr<T>> slots;
  slots.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    slots.emplace_back(Status::Cancelled("ParallelMap: index not run"));
  }
  ParallelForBlocks(n, options, [&slots, &fn](size_t begin, size_t end) {
    Scratch scratch;
    for (size_t i = begin; i < end; ++i) {
      slots[i] = fn(i, &scratch);
    }
  });
  return slots;
}

/// Like ParallelMap, but keeps *every* per-index outcome instead of
/// collapsing to the first error: slot i holds fn(i)'s StatusOr verbatim,
/// so callers can implement skip-and-report policies (use the successful
/// fits, surface the failed indices) without losing partial work. Indices
/// skipped by a cancelled token come back as Status::Cancelled in their
/// slots. Slot contents are bit-identical at any thread count.
template <typename T, typename Fn>
std::vector<StatusOr<T>> ParallelTryMap(size_t n,
                                        const ParallelOptions& options,
                                        const Fn& fn) {
  struct NoScratch {};
  return ParallelTryMapWithScratch<T, NoScratch>(
      n, options, [&fn](size_t i, NoScratch*) { return fn(i); });
}

/// Maps `fn(i) -> StatusOr<T>` over [0, n) in parallel and collects the
/// values into a vector in index order (slot i holds fn(i), bit-identical
/// at any thread count). Errors do not tear down in-flight work: every
/// index still runs, and the returned status is the error of the *lowest
/// failing index* — the same error a serial first-failure loop reports,
/// keeping the error path deterministic too. An index that a cancelled
/// token left unrun fails with Status::Cancelled and takes part in the
/// lowest-index rule like any other error.
template <typename T, typename Fn>
StatusOr<std::vector<T>> ParallelMap(size_t n, const ParallelOptions& options,
                                     const Fn& fn) {
  std::vector<StatusOr<T>> slots = ParallelTryMap<T>(n, options, fn);
  std::vector<T> values;
  values.reserve(n);
  for (StatusOr<T>& slot : slots) {
    if (!slot.ok()) {
      return slot.status();
    }
    values.push_back(std::move(slot).value());
  }
  return values;
}

}  // namespace dspot

#endif  // DSPOT_PARALLEL_PARALLEL_FOR_H_
