// Epoch-level batch-plan compilation — the trainer's plan stage.
//
// A training epoch is a fixed schedule of (positive, negative) batch pairs.
// Compiling the schedule means staging the triplets (applying the epoch's
// pair permutation and the k-way negative tiling once, instead of re-copying
// them every batch of every epoch) and pre-building every incidence matrix
// the model's ScoringRecipe names. Compilation consumes only plain data —
// the triplet store, a negatives snapshot, a permutation — never the model's
// weights or the run's RNG, so the trainer can run it as a pool prefetch
// task while the previous epoch executes (double buffering).
//
// Plans flow through a sparse::PlanCache keyed by batch ordinal: when the
// batch composition is epoch-invariant (no shuffle, no negative resampling)
// every epoch after the first is served entirely from cache — zero incidence
// rebuilds, asserted by tests/test_batch_plan.cpp via the profiling
// counters. Shuffle or resampling invalidate the cache and recompile.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "src/kg/triplet.hpp"
#include "src/kg/triplet_source.hpp"
#include "src/sparse/plan_cache.hpp"

namespace sptx::train {

/// One compiled (positive, negative) batch pair, ready for forward/backward.
struct BatchPlan {
  std::shared_ptr<const sparse::CompiledBatch> pos;
  std::shared_ptr<const sparse::CompiledBatch> neg;
};

/// The inputs one epoch's compilation consumes. All RNG-driven state (the
/// permutation, refreshed negatives) is produced by the caller on the
/// driving thread, which keeps the RNG stream independent of where the
/// compile runs. Spans must outlive the compiled plans unless staging copies them
/// (shuffle or k > 1 always stage).
struct EpochBatchSource {
  /// Positives — an in-memory store or an mmap'd streaming store; batches
  /// compile from zero-copy slices either way.
  kg::TripletSource data;
  /// Pre-generated negatives, repetition-major: entry rep·|data| + i
  /// corrupts positive i (NegativeSampler::pregenerate_k layout).
  std::span<const Triplet> negatives;
  /// Pair permutation applied this epoch; empty means identity order.
  std::span<const index_t> positions;
  int k = 1;  // negatives per positive
  index_t batch_size = 0;
};

/// Compile every batch of one epoch. Batches are served through `cache`
/// (keyed 2·ordinal for positives, 2·ordinal+1 for negatives) when non-null;
/// the caller invalidates the cache first whenever the schedule changed.
std::vector<BatchPlan> compile_epoch_plans(const EpochBatchSource& source,
                                           const sparse::ScoringRecipe& recipe,
                                           sparse::PlanCache* cache);

}  // namespace sptx::train
