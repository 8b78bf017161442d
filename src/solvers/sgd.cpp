#include "solvers/sgd.hpp"

#include <span>
#include <utility>

#include "sampling/sequence.hpp"
#include "solvers/async_runner.hpp"
#include "solvers/solver.hpp"
#include "sparse/kernels.hpp"
#include "util/rng.hpp"

namespace isasgd::solvers {

namespace {

/// Applies one gathered mini-batch to `w` — the serial SGD update. Shared
/// by the in-memory and streaming drivers so the update rule can only ever
/// change in one place. The step is divided by the *actual* batch size, so
/// a streaming tail batch shorter than b keeps per-sample scaling.
inline void apply_batch(std::vector<double>& w, const sparse::CsrMatrix& rows,
                        std::span<const std::pair<std::size_t, double>> batch,
                        double step, double eta_l1, double eta_l2) {
  const double batch_step = step / static_cast<double>(batch.size());
  for (const auto& [i, g] : batch) {
    sparse::sparse_dot_residual_axpy(w, rows.row(i), batch_step, g, eta_l1,
                                     eta_l2);
  }
}

}  // namespace

Trace run_sgd(const sparse::CsrMatrix& data,
              const objectives::Objective& objective,
              const SolverOptions& options, const EvalFn& eval,
              TrainingObserver* observer, const SnapshotHooks& hooks) {
  const std::size_t n = data.rows();
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  std::vector<double> w(data.dim(), 0.0);
  TraceRecorder recorder("SGD", 1, options.step_size,
                         eval, observer);

  // Cross-epoch state: {w, rng}. The draw stream runs uninterrupted across
  // epochs, so the RNG words travel with every checkpoint.
  util::Rng rng(options.seed);
  if (hooks.resume) {
    w = hooks.resume->model;
    rng = hooks.resume->get_rng("rng");
  }
  // Scratch for one mini-batch: (row id, gradient scale). All margins are
  // computed against the same model state, then all updates applied — the
  // standard mini-batch semantics (b = 1 degenerates to plain SGD).
  std::vector<std::pair<std::size_t, double>> batch(b);
  const std::size_t updates_per_epoch = (n + b - 1) / b;

  const double eta_l1 = options.reg.eta_l1();
  const double eta_l2 = options.reg.eta_l2();
  const double train_seconds = detail::run_epoch_fenced_serial_range(
      w, recorder, hooks.first_epoch(), options.epochs,
      [&](std::size_t epoch) {
        const double step = epoch_step(options, epoch);
        for (std::size_t u = 0; u < updates_per_epoch; ++u) {
          for (std::size_t k = 0; k < b; ++k) {
            const std::size_t i = util::uniform_index(rng, n);
            const double margin = sparse::sparse_dot(w, data.row(i));
            batch[k] = {i, objective.gradient_scale(margin, data.label(i))};
          }
          apply_batch(w, data, batch, step, eta_l1, eta_l2);
        }
        detail::maybe_capture(hooks, "SGD", epoch, options.seed,
                              options.epochs, w, [&](SnapshotState& state) {
                                state.put_rng("rng", rng);
                              });
      });
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(train_seconds);
}

Trace run_sgd_streaming(const data::DataSource& source,
                        const objectives::Objective& objective,
                        const SolverOptions& options, const EvalFn& eval,
                        TrainingObserver* observer,
                        const SnapshotHooks& hooks) {
  const std::size_t b = std::max<std::size_t>(1, options.batch_size);
  std::vector<double> w(source.dim(), 0.0);
  TraceRecorder recorder("SGD", 1, options.step_size,
                         eval, observer);
  sampling::ShardedSequence schedule(source.shard_sizes(), options.seed);
  // Cross-epoch state is w alone: the schedule reseeds per epoch from
  // (seed, epoch) and there is no draw RNG on this path.
  if (hooks.resume) w = hooks.resume->model;

  const double eta_l1 = options.reg.eta_l1();
  const double eta_l2 = options.reg.eta_l2();
  std::vector<std::pair<std::size_t, double>> batch(b);
  const double train_seconds = detail::run_epoch_fenced_serial_sharded_range(
      source, schedule, w, recorder, hooks.first_epoch(), options.epochs,
      [&](const data::Shard& shard, std::span<const std::uint32_t> row_order,
          std::size_t epoch) {
        const sparse::CsrMatrix& rows = *shard.matrix;
        const double step = epoch_step(options, epoch);
        for (std::size_t at = 0; at < row_order.size(); at += b) {
          const std::size_t count = std::min(b, row_order.size() - at);
          // Same mini-batch semantics as the in-memory kernel: all margins
          // against one model state, then all updates.
          for (std::size_t k = 0; k < count; ++k) {
            const std::size_t i = row_order[at + k];
            const double margin = sparse::sparse_dot(w, rows.row(i));
            batch[k] = {i, objective.gradient_scale(margin, rows.label(i))};
          }
          apply_batch(w, rows, {batch.data(), count}, step, eta_l1, eta_l2);
        }
      },
      [&](std::size_t epoch) {
        detail::maybe_capture(hooks, "SGD", epoch, options.seed,
                              options.epochs, w, [](SnapshotState&) {});
      });
  if (options.keep_final_model) recorder.set_final_model(w);
  return std::move(recorder).finish(train_seconds);
}

namespace {

class SgdSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "SGD"; }
  SolverCapabilities capabilities() const noexcept override {
    return {.streaming = true, .checkpointable = true};
  }

 protected:
  Trace run_impl(const SolverContext& ctx) const override {
    if (ctx.sharded()) {
      return run_sgd_streaming(ctx.source, ctx.objective, ctx.options,
                               ctx.eval, ctx.observer, ctx.snapshot);
    }
    return run_sgd(ctx.data(), ctx.objective, ctx.options, ctx.eval,
                   ctx.observer, ctx.snapshot);
  }
};

ISASGD_REGISTER_SOLVER(SgdSolver);

}  // namespace

}  // namespace isasgd::solvers
