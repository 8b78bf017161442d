// Epoch-fenced execution drivers shared by the solvers, and the one Hogwild
// worker loop of the ASGD family.
//
// Within an epoch the workers are fully lock-free (that is the algorithm
// under study); at epoch boundaries the pool quiesces so the model can be
// scored against a stable snapshot, with the training clock paused —
// evaluation cost never pollutes the wall-clock traces the paper's Figures
// 4–5 are built from.
//
// Workers come from a persistent util::ThreadPool (normally the one owned
// by the caller's core::ExecutionContext) instead of being spawned per
// call: ThreadPool::run(team, fn) is the fence primitive — its return means
// every worker arrived, and the next dispatch is the release. Thread
// creation happens at most once per pool lifetime, outside the steady-state
// timed windows.
//
// An epoch is a list of pool-fenced phases: one for in-memory data
// (InMemoryEpoch), or one per shard of a data::DataSource (ShardedEpoch).
// Shard I/O lands *inside* the timed window, so streaming traces measure
// true out-of-core throughput.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "data/data_source.hpp"
#include "objectives/objective.hpp"
#include "partition/partition.hpp"
#include "sampling/sequence.hpp"
#include "solvers/model.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"
#include "sparse/dispatch.hpp"
#include "sparse/kernels.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace isasgd::solvers::detail {

/// Resolves the pool a solver run should use: the context-provided one, or
/// the process-wide fallback for direct run_* callers that hold none.
inline util::ThreadPool& pool_or_default(util::ThreadPool* pool) {
  return pool ? *pool : util::default_thread_pool();
}

/// Margin dot for the gather half of an async step — the ONE place the
/// wild-vs-atomic read dispatch lives: under the kWild fast lane the read
/// goes through the SIMD sparse_dot on the raw wild_view; every other
/// discipline keeps relaxed per-element atomic loads. See model.hpp's
/// wild_view contract.
inline double gather_margin(const SharedModel& model,
                            sparse::SparseVectorView x, bool wild) noexcept {
  // Through the runtime-dispatched table directly: the per-call atomic load
  // in the kernels.cpp forwarders is cheap but not free, and this is the
  // hottest read in the library.
  return wild ? sparse::kernels::active().sparse_dot(model.wild_view(), x)
              : model.sparse_dot(x);
}

/// The write half of an async stochastic step — the ONE place the
/// regularized Hogwild coordinate update lives: under kWild the fused
/// ISASGD_RESTRICT kernel runs on the raw wild_view (bit-identical
/// per-coordinate arithmetic, see sparse/kernels.hpp); every other
/// discipline takes the per-element load → subgradient → add() path.
inline void apply_update(SharedModel& model, sparse::SparseVectorView x,
                         double step, double g,
                         const objectives::Regularization& reg,
                         UpdatePolicy policy) noexcept {
  if (policy == UpdatePolicy::kWild) {
    sparse::kernels::active().sparse_dot_residual_axpy(
        model.wild_view(), x, step, g, reg.eta_l1(), reg.eta_l2());
    return;
  }
  const auto idx = x.indices();
  const auto val = x.values();
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const std::size_t c = idx[j];
    const double wc = model.load(c);
    model.add(c, -step * (g * val[j] + reg.subgradient(wc)), policy);
  }
}

/// The ONE translation from the option-level sequence mode to the sampling
/// layer's block mode. Adaptive importance always takes the i.i.d. stream —
/// its per-refresh rebuild() needs it; the shuffled modes' multiset is
/// fixed at construction.
inline sampling::BlockSequence::Mode block_mode(const SolverOptions& options) {
  if (options.adaptive_importance) return sampling::BlockSequence::Mode::kIid;
  switch (options.sequence_mode) {
    case SolverOptions::SequenceMode::kStratified:
      return sampling::BlockSequence::Mode::kStratified;
    case SolverOptions::SequenceMode::kReshuffle:
      return sampling::BlockSequence::Mode::kReshuffle;
    case SolverOptions::SequenceMode::kPregenerate:
      break;
  }
  return sampling::BlockSequence::Mode::kIid;
}

/// Worker tid's shard of a plan over min(threads, rows) partitions: a team
/// larger than the dataset leaves its surplus workers an empty shard.
inline partition::Shard team_shard(const partition::PartitionPlan& plan,
                                   std::size_t tid) {
  return tid < plan.num_partitions() ? plan.shard(tid) : partition::Shard{};
}

/// One draw: a row of the pass's matrix and its step weight (1.0 uniform,
/// 1/(N_tid·p_i) under importance sampling, Algorithm 4 line 15).
struct Draw {
  std::size_t row;
  double weight;
};

/// The Hogwild worker loop of ASGD and IS-ASGD. A pass runs `samples` draws
/// from a draw policy (`Draw next()`, plus `observe(g)`, called with each
/// draw's gradient scale) in mini-batches of options.batch_size: a batch
/// gathers every gradient scale against the current (racy) model, then
/// applies every update with step λ·w/bsize; only a tail batch is short.
/// b = 1 skips the batch buffer and the second row decode (÷1 is exact).
/// Batch scratch is allocated per run, so passes never allocate.
class HogwildLoop {
 public:
  HogwildLoop(SharedModel& model, const objectives::Objective& objective,
              const SolverOptions& options, std::size_t threads)
      : model_(model),
        objective_(objective),
        reg_(options.reg),
        policy_(options.update_policy),
        wild_(policy_ == UpdatePolicy::kWild),
        scratch_(threads, std::vector<Slot>(
                              std::max<std::size_t>(1, options.batch_size))) {}

  /// φ'(w·x, y) against the current (racy) model: the gather of every step,
  /// and of IS-ASGD's adaptive-importance sweep.
  [[nodiscard]] double gradient(sparse::SparseVectorView x,
                                double label) const {
    return objective_.gradient_scale(gather_margin(model_, x, wild_), label);
  }

  template <class Draws>
  void run(std::size_t tid, const sparse::CsrMatrix& rows, Draws& draws,
           std::size_t samples, double lambda) {
    const auto gather = [&](const Draw& d, sparse::SparseVectorView x) {
      const double g = gradient(x, rows.label(d.row));
      draws.observe(g);
      return g;
    };
    const auto apply = [&](sparse::SparseVectorView x, double step,
                           double g) {
      apply_update(model_, x, step, g, reg_, policy_);
    };
    std::vector<Slot>& batch = scratch_[tid];
    const std::size_t b = batch.size();
    if (b == 1) {
      for (std::size_t t = 0; t < samples; ++t) {
        const Draw d = draws.next();
        const auto x = rows.row(d.row);
        const double g = gather(d, x);
        apply(x, lambda * d.weight, g);
      }
      return;
    }
    for (std::size_t base = 0; base < samples; base += b) {
      const std::size_t bsize = std::min(b, samples - base);
      for (std::size_t k = 0; k < bsize; ++k) {
        const Draw d = draws.next();
        batch[k] = {d, gather(d, rows.row(d.row))};
      }
      for (std::size_t k = 0; k < bsize; ++k) {
        const Slot& s = batch[k];
        apply(rows.row(s.draw.row),
              lambda * s.draw.weight / static_cast<double>(bsize), s.g);
      }
    }
  }

 private:
  struct Slot {
    Draw draw;
    double g;
  };
  SharedModel& model_;
  const objectives::Objective& objective_;
  const objectives::Regularization reg_;
  const UpdatePolicy policy_;
  const bool wild_;
  std::vector<std::vector<Slot>> scratch_;
};

/// The in-memory epoch: one pool-fenced phase over data the workers hold.
struct InMemoryEpoch {
  struct Phase {};
  void begin_epoch(std::size_t) noexcept {}
  [[nodiscard]] std::size_t phases() const noexcept { return 1; }
  [[nodiscard]] Phase phase(std::size_t) const noexcept { return {}; }
  void end_epoch() const noexcept {}
};

/// The out-of-core epoch: one phase per shard, shards and rows both in the
/// ShardedSequence order (a pure function of seed/epoch/shard, so results
/// never depend on cache or prefetch state). Each phase prefetches the next
/// source.prefetch_depth() shards; each epoch ends with source.end_epoch(),
/// the prefetch autotuner's observation point.
class ShardedEpoch {
 public:
  struct Phase {
    data::ShardPtr shard;
    /// Shard-local row visit order; valid until the next phase() call.
    std::span<const std::uint32_t> rows;
  };

  ShardedEpoch(const data::DataSource& source,
               sampling::ShardedSequence& schedule)
      : source_(source), schedule_(schedule) {}

  void begin_epoch(std::size_t epoch) {
    schedule_.begin_epoch(epoch);
    depth_ = source_.prefetch_depth();
  }
  [[nodiscard]] std::size_t phases() const noexcept {
    return schedule_.shard_order().size();
  }
  [[nodiscard]] Phase phase(std::size_t k) {
    const auto order = schedule_.shard_order();
    for (std::size_t d = 1; d <= depth_ && k + d < order.size(); ++d) {
      source_.prefetch(order[k + d]);
    }
    return {source_.shard(order[k]), schedule_.rows(order[k])};
  }
  void end_epoch() const { source_.end_epoch(); }

 private:
  const data::DataSource& source_;
  sampling::ShardedSequence& schedule_;
  std::size_t depth_ = 0;
};

/// The one fenced epoch loop behind every driver below. Records `model` at
/// epoch first_epoch − 1, then per epoch runs `plan`'s phases through
/// `run_phase(phase, epoch)` (epoch is 1-based) with the clock running,
/// calls `fence(epoch)` with the clock paused and records one trace point.
/// Returns the total training seconds. If the recorder's observer requests
/// a stop, the remaining epochs are simply not run.
template <class Model, class Epoch, class PhaseFn, class FenceFn>
double run_fenced_epochs(const Model& model, TraceRecorder& recorder,
                         std::size_t first_epoch, std::size_t epochs,
                         Epoch& plan, PhaseFn&& run_phase, FenceFn&& fence) {
  recorder.record(first_epoch - 1, 0.0, model);
  util::AccumulatingTimer clock;
  for (std::size_t epoch = first_epoch;
       epoch <= epochs && !recorder.stop_requested(); ++epoch) {
    plan.begin_epoch(epoch);
    clock.start();
    for (std::size_t k = 0; k < plan.phases(); ++k) {
      run_phase(plan.phase(k), epoch);
    }
    clock.stop();
    plan.end_epoch();
    fence(epoch);
    recorder.record(epoch, clock.seconds(), model);
  }
  return clock.seconds();
}

/// Runs `threads` logical workers on `pool`: each phase is one dispatch of
/// `worker(tid, phase, epoch)` followed by the pool fence, after which the
/// pool is quiescent, so the raw wild_view is an exact, allocation-free
/// snapshot for scoring.
template <class Epoch, class WorkerPhaseFn>
double run_epoch_fenced(util::ThreadPool& pool, SharedModel& model,
                        TraceRecorder& recorder, std::size_t epochs,
                        std::size_t threads, Epoch& plan,
                        WorkerPhaseFn&& worker) {
  // Warm the pool before the clock starts: on a cold context the one-time
  // worker spawn must not land inside epoch 1's timed window.
  pool.reserve(threads);
  return run_fenced_epochs(
      model.wild_view(), recorder, 1, epochs, plan,
      [&](const auto& phase, std::size_t epoch) {
        pool.run(threads, [&](std::size_t tid) { worker(tid, phase, epoch); });
      },
      [](std::size_t) {});
}

/// In-memory form: `worker_epoch(tid, epoch)` performs that worker's share
/// of one epoch's update iterations on the shared model.
template <class WorkerEpochFn>
double run_epoch_fenced(util::ThreadPool& pool, SharedModel& model,
                        TraceRecorder& recorder, std::size_t epochs,
                        std::size_t threads, WorkerEpochFn&& worker_epoch) {
  InMemoryEpoch plan;
  return run_epoch_fenced(
      pool, model, recorder, epochs, threads, plan,
      [&](std::size_t tid, InMemoryEpoch::Phase, std::size_t epoch) {
        worker_epoch(tid, epoch);
      });
}

/// Serial counterpart: `epoch_body(epoch)` performs one epoch's iterations
/// on `w`, timed and recorded exactly like the async driver so serial and
/// async traces are directly comparable. The range form exists for
/// checkpoint resume (snapshot.hpp): a restored run starts at `first_epoch`
/// = fence + 1 and records the restored model as its initial point — the
/// epoch indices the bodies see are identical to the uninterrupted run's,
/// which keeps per-epoch seed derivations and refresh cadences
/// bit-compatible. first_epoch > epochs runs zero epochs (a checkpoint
/// taken at the final fence restores to a finished run).
template <class EpochBodyFn>
double run_epoch_fenced_serial_range(std::vector<double>& w,
                                     TraceRecorder& recorder,
                                     std::size_t first_epoch,
                                     std::size_t epochs,
                                     EpochBodyFn&& epoch_body) {
  InMemoryEpoch plan;
  return run_fenced_epochs(
      w, recorder, first_epoch, epochs, plan,
      [&](InMemoryEpoch::Phase, std::size_t epoch) { epoch_body(epoch); },
      [](std::size_t) {});
}

/// Serial shard-major epochs: `shard_body(shard, row_order, epoch)`
/// performs the updates for one shard — `shard.matrix->row(r)` for each
/// shard-local r in `row_order` (global row id = shard.row_begin + r).
/// `fence(epoch)` runs after each epoch's shards, outside the clock —
/// checkpoint capture lands there. The schedule is a pure function of
/// (seed, epoch, shard), so a run resumed at `first_epoch` replays exactly
/// the uninterrupted run's orders — no sampler state to restore.
template <class ShardBodyFn, class FenceFn>
double run_epoch_fenced_serial_sharded_range(
    const data::DataSource& source, sampling::ShardedSequence& schedule,
    std::vector<double>& w, TraceRecorder& recorder, std::size_t first_epoch,
    std::size_t epochs, ShardBodyFn&& shard_body, FenceFn&& fence) {
  ShardedEpoch plan(source, schedule);
  return run_fenced_epochs(
      w, recorder, first_epoch, epochs, plan,
      [&](const ShardedEpoch::Phase& phase, std::size_t epoch) {
        shard_body(*phase.shard, phase.rows, epoch);
      },
      fence);
}

}  // namespace isasgd::solvers::detail
