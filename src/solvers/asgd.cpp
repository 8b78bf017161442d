#include "solvers/asgd.hpp"

#include <utility>

#include "core/numa.hpp"
#include "partition/balancer.hpp"
#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/model.hpp"
#include "solvers/solver.hpp"
#include "util/rng.hpp"

namespace isasgd::solvers {

namespace {

/// In-memory draw policy: uniform i.i.d. draws over the worker's slice of
/// the shuffled order, all at step weight 1.0.
struct UniformSliceDraws {
  const std::uint32_t* slice;
  std::size_t size;
  util::Rng& rng;
  detail::Draw next() { return {slice[util::uniform_index(rng, size)], 1.0}; }
  void observe(double) const noexcept {}
};

/// Sharded draw policy: a without-replacement walk over the worker's
/// contiguous slice of a shard's row order, all at step weight 1.0.
struct SliceWalkDraws {
  const std::uint32_t* at;
  detail::Draw next() { return {*at++, 1.0}; }
  void observe(double) const noexcept {}
};

/// Out-of-core ASGD: shards are visited in the ShardedSequence order; within
/// each shard the workers split the shard's row order into contiguous slices
/// and update the shared model lock-free — Hogwild confined to the resident
/// working set, with the next shard prefetching in the background.
Trace run_asgd_sharded(const data::DataSource& source,
                       const objectives::Objective& objective,
                       const SolverOptions& options, const EvalFn& eval,
                       TrainingObserver* observer, util::ThreadPool* pool) {
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  SharedModel model(source.dim());
  TraceRecorder recorder("ASGD", threads, options.step_size, eval, observer);
  sampling::ShardedSequence schedule(source.shard_sizes(), options.seed);
  detail::ShardedEpoch plan(source, schedule);
  detail::HogwildLoop loop(model, objective, options, threads);
  const double train_seconds = detail::run_epoch_fenced(
      detail::pool_or_default(pool), model, recorder, options.epochs, threads,
      plan,
      [&](std::size_t tid, const detail::ShardedEpoch::Phase& phase,
          std::size_t epoch) {
        const std::size_t local_n = phase.rows.size();
        const std::size_t begin = local_n * tid / threads;
        const std::size_t end = local_n * (tid + 1) / threads;
        SliceWalkDraws draws{phase.rows.data() + begin};
        loop.run(tid, *phase.shard->matrix, draws, end - begin,
                 epoch_step(options, epoch));
      });
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

}  // namespace

Trace run_asgd(const sparse::CsrMatrix& data,
               const objectives::Objective& objective,
               const SolverOptions& options, const EvalFn& eval,
               TrainingObserver* observer, util::ThreadPool* pool,
               const core::NumaPolicy* numa) {
  const std::size_t n = data.rows();
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  TraceRecorder recorder("ASGD", threads, options.step_size, eval, observer);

  // Shuffled contiguous shards: worker tid owns rows
  // order[n·tid/threads .. n·(tid+1)/threads). NUMA placement (inactive
  // single-node): ASGD's shards are uniform, so row counts stand in for
  // IS-ASGD's Φ totals when balancing shards over nodes (see run_is_asgd).
  const std::vector<std::uint32_t> order =
      partition::random_shuffle(n, options.seed ^ 0xa5a5);
  std::vector<std::size_t> boundary(threads + 1, 0);
  std::vector<double> shard_mass(threads);
  for (std::size_t a = 0; a < threads; ++a) {
    boundary[a + 1] = n * (a + 1) / threads;
    shard_mass[a] = static_cast<double>(boundary[a + 1] - boundary[a]);
  }
  const core::NumaPlacement placement =
      core::plan_placement(numa, shard_mass, data.dim());
  SharedModel model(data.dim(), placement);
  if (placement.active) {
    detail::pool_or_default(pool).set_worker_cpus(
        core::worker_cpu_plan(placement, threads));
  }

  // Per-worker RNG streams, padded to avoid false sharing.
  std::vector<util::CachePadded<util::Rng>> rngs(threads);
  for (std::size_t tid = 0; tid < threads; ++tid) {
    rngs[tid].value.reseed(util::derive_seed(options.seed, tid));
  }
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  detail::HogwildLoop loop(model, objective, options, threads);
  const double train_seconds = detail::run_epoch_fenced(
      detail::pool_or_default(pool), model, recorder, options.epochs, threads,
      [&](std::size_t tid, std::size_t epoch) {
        const std::size_t local_n = boundary[tid + 1] - boundary[tid];
        if (local_n == 0) return;
        UniformSliceDraws draws{order.data() + boundary[tid], local_n,
                                rngs[tid].value};
        // The schedule is a pure function of the epoch, so every worker
        // derives the same λ locally — no shared decay state to race on.
        // Every batch is full: ⌈local_n/b⌉·b draws per worker per epoch.
        loop.run(tid, data, draws, (local_n + b - 1) / b * b,
                 epoch_step(options, epoch));
      });
  if (options.keep_final_model) recorder.set_final_model(model.snapshot());
  return std::move(recorder).finish(train_seconds);
}

namespace {

class AsgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "ASGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.parallel = true, .streaming = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    if (ctx.sharded()) {
      return run_asgd_sharded(ctx.source, ctx.objective, ctx.options,
                              ctx.eval, ctx.observer, ctx.pool);
    }
    return run_asgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                    ctx.observer, ctx.pool, ctx.numa);
  }
};

ISASGD_REGISTER_SOLVER(AsgdSolver);

}  // namespace

}  // namespace isasgd::solvers
