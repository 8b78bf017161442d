// Benchmark driver: generates a workload's inputs, runs the measured
// training process with its output checks, and self-tests those checks.
// perfbench/run.py calls it; see perfbench/README.md.
//
//   driver gen      --workload W --seed N --out DIR
//   driver run      --workload W --data DIR --seconds S --trace 0|1
//                   [--trace-out FILE] [--probe 1]
//   driver selftest
//
// `run` prints one line "RESULT {json}" with its metrics, the number of
// training trials attempted, and the messages of any failed check.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "core/execution.hpp"
#include "core/trainer.hpp"
#include "data/packed_source.hpp"
#include "data/paper_datasets.hpp"
#include "distributed/cluster.hpp"
#include "distributed/fenced.hpp"
#include "distributed/param_server.hpp"
#include "io/libsvm.hpp"
#include "io/shardpack.hpp"
#include "metrics/evaluator.hpp"
#include "net/transport.hpp"
#include "objectives/logistic.hpp"
#include "partition/partition.hpp"
#include "rows.hpp"
#include "sampling/alias_table.hpp"
#include "sampling/sequence.hpp"
#include "solvers/observer.hpp"
#include "sparse/kernels.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace isasgd;

const Clock::time_point kProcessStart = Clock::now();

// ---- workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  data::PaperDataset dataset{};  ///< calibrated analog of a Table-1 dataset
  double scale = 1;              ///< paper_dataset_config scale (rows and dim)
  std::size_t rows = 0;          ///< from the dataset's config
  std::size_t dim = 0;
  double step = 0;               ///< the paper's λ for the dataset
  std::string solver;
  std::size_t team = 0;    ///< Hogwild threads, or PS worker processes
  std::size_t epochs = 0;  ///< epochs per training trial
  double l1 = 0;
  /// Fixed training-objective target; sits between two fences' objectives
  /// on every seed (README: "Targets").
  double target = 0;
  bool packed = false;      ///< ISSP shardpack input, else LibSVM text
  bool process = false;     ///< real 1-server/k-worker process group
  std::size_t shard_rows = 0;
  std::size_t budget_bytes = 0;
};

Workload on_dataset(std::string name, data::PaperDataset dataset, double scale) {
  const data::PaperDatasetConfig cfg = data::paper_dataset_config(dataset, scale);
  Workload w;
  w.name = std::move(name);
  w.dataset = dataset;
  w.scale = scale;
  w.rows = cfg.spec.rows;
  w.dim = cfg.spec.dim;
  w.step = cfg.lambda;
  w.l1 = 1e-7;
  return w;
}

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  // news20 analog at scale 10: 100k rows, 600k columns (4.8 MB model, past
  // L2), ~60 nnz per row, parsed from LibSVM, 3-thread IS-ASGD team.
  w.push_back(on_dataset("is_asgd-inmem", data::PaperDataset::kNews20, 10));
  w.back().solver = "is_asgd";
  w.back().team = 3;
  w.back().epochs = 14;
  w.back().target = 0.3273;
  // url analog: sparser and wider (~12 nnz per row), streamed from an ISSP
  // shardpack under an 8 MiB budget, 2-thread uniform ASGD.
  w.push_back(on_dataset("asgd-packed", data::PaperDataset::kUrl, 4));
  w.back().solver = "asgd";
  w.back().team = 2;
  w.back().epochs = 5;
  w.back().target = 0.6757;
  w.back().packed = true;
  w.back().shard_rows = 4096;
  w.back().budget_bytes = std::size_t{8} << 20;
  // dist.ps.is_asgd on 1 server + 2 workers over tcp loopback, fenced
  // round-robin, on the news20 analog at its default scale.
  w.push_back(on_dataset("ps-tcp", data::PaperDataset::kNews20, 1));
  w.back().solver = "dist.ps.is_asgd";
  w.back().team = 2;
  w.back().epochs = 5;
  w.back().target = 0.5285;
  w.back().process = true;
  return w;
}

const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> all = workloads();
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---- small helpers -----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double peak_rss_mib() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);  // reaped PS server and workers
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) throw std::invalid_argument(argv[i]);
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& f, const char* key, const char* def = nullptr) {
  const auto it = f.find(key);
  if (it != f.end()) return it->second;
  if (def) return def;
  throw std::invalid_argument(std::string("missing --") + key);
}

Digest digest_of(const sparse::CsrMatrix& m, Digest d = {}) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const auto x = m.row(i);
    d.add_row(x.indices(), x.values(), x.nnz(), m.label(i));
  }
  return d;
}

sparse::CsrMatrix to_csr(const Rows& r) {
  return sparse::CsrMatrix(r.dim, std::vector<std::size_t>(r.ptr.begin(), r.ptr.end()), r.col, r.val,
                           r.label);
}

// ---- gen ---------------------------------------------------------------------

/// The workload's dataset for `seed`: the library's calibrated analog, with
/// values rounded to the digits the LibSVM text carries. Every row has the
/// analog's mean length rather than a Poisson-drawn one, so all seeds give
/// the parser the same allocation pattern: with drawn lengths, the peak RSS
/// of `is_asgd-inmem` moved between 89 and 94 MiB with the seed. Row norms,
/// and so ψ and ρ, are set apart from the length.
Rows generate_rows(const Workload& w, std::uint64_t seed) {
  data::PaperDatasetConfig cfg = data::paper_dataset_config(w.dataset, w.scale);
  cfg.spec.seed = seed;
  cfg.spec.nnz_dispersion = 0;
  const sparse::CsrMatrix m = data::generate(cfg.spec);
  Rows r;
  r.dim = m.dim();
  r.ptr.reserve(m.rows() + 1);
  r.col.reserve(m.nnz());
  r.val.reserve(m.nnz());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const auto x = m.row(i);
    for (std::size_t k = 0; k < x.nnz(); ++k) {
      r.col.push_back(x.indices()[k]);
      r.val.push_back(round_value(x.values()[k]));
    }
    r.ptr.push_back(r.col.size());
    r.label.push_back(m.label(i));
  }
  return r;
}

int cmd_gen(const std::map<std::string, std::string>& f) {
  const Workload& w = find_workload(flag(f, "workload"));
  const std::uint64_t seed = std::stoull(flag(f, "seed"));
  const std::string dir = flag(f, "out");
  const Rows rows = generate_rows(w, seed);
  write_rows(dir + "/rows.bin", rows);
  if (w.packed) {
    io::ShardPackWriteOptions opt;
    opt.shard_rows = w.shard_rows;
    io::write_shardpack(dir + "/data.issp", to_csr(rows), opt);
  } else {
    write_libsvm_text(dir + "/data.libsvm", rows);
  }
  const ImportanceStats st = importance_stats(lipschitz(rows));
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu rows, %zu columns, %zu nnz, psi %.4f, rho %.3g\n",
               w.name.c_str(), static_cast<unsigned long long>(seed), rows.rows(), rows.dim, rows.nnz(),
               st.psi, st.rho);
  return 0;
}

// ---- run ---------------------------------------------------------------------

/// Fence clock: the benchmark's own wall time at every on_epoch callback.
class FenceClock final : public solvers::TrainingObserver {
 public:
  std::vector<Clock::time_point> at;
  std::vector<double> objective;
  distributed::ParamServerReport report;
  bool have_report = false;

  bool on_epoch(const solvers::TracePoint& p) override {
    at.push_back(Clock::now());
    objective.push_back(p.objective);
    return true;
  }
  void on_diagnostics(const std::any& d) override {
    if (const auto* r = std::any_cast<distributed::ParamServerReport>(&d)) {
      report = *r;
      have_report = true;
    }
  }
};

struct Trial {
  Clock::time_point begin;  ///< first call into the program for this trial
  FenceClock fences;
  double load_seconds = 0;   ///< LibSVM parse or shardpack open
  double setup_seconds = 0;  ///< Trace::setup_seconds
  double final_objective = 0;
  std::optional<data::CacheStats> cache;
  std::size_t prefetch_depth = 0;
  bool traced = false;
};

class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}", name.c_str(), value, unit);
    items_.push_back(buf);
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) s += (i ? "," : "") + items_[i];
    return s + "}";
  }

 private:
  std::vector<std::string> items_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out;
}

/// The workload's program state shared by all trials of one run.
struct Program {
  const Workload& w;
  std::string dir;
  std::shared_ptr<core::ExecutionContext> ctx;
  sparse::CsrMatrix data;  ///< LibSVM workloads: the latest parse
  objectives::LogisticLoss loss;
  std::vector<double> last_model;  ///< final model of the latest trial
};

/// One training trial, as a user runs it: parse the LibSVM file (or open
/// the shardpack cold), build the Trainer, and train `epochs` epochs with
/// `team` workers.
Trial train_once(Program& p, std::size_t team, Spans* spans, bool keep_model) {
  const Workload& w = p.w;
  Trial t;
  t.begin = Clock::now();
  t.traced = spans != nullptr;
  Scope trial_span(spans, "trial");
  std::shared_ptr<data::PackedSource> source;
  if (w.packed) {
    Scope s(spans, "io.shardpack_open");
    data::PackedOptions opt;
    opt.memory_budget_bytes = w.budget_bytes;
    source = p.ctx->open_packed(p.dir + "/data.issp", opt);
  } else {
    Scope s(spans, "io.libsvm_parse");
    p.data = sparse::CsrMatrix();
    io::LibsvmReadOptions opt;
    opt.dim_hint = w.dim;
    p.data = io::read_libsvm_file(p.dir + "/data.libsvm", opt);
  }
  t.load_seconds = seconds_between(t.begin, Clock::now());
  core::TrainerBuilder builder;
  builder.objective(p.loss).l1(w.l1).eval_threads(w.team).execution(p.ctx);
  if (source) {
    builder.source(*source);
  } else {
    builder.data(p.data);
  }
  if (w.process) {
    distributed::ClusterSpec spec;
    spec.nodes = team;
    spec.backend = distributed::Backend::kProcess;
    spec.schedule = distributed::Schedule::kFencedRoundRobin;
    spec.transport = "tcp";
    builder.cluster(spec);
  }
  const core::Trainer trainer = builder.build();
  solvers::SolverOptions opt;
  opt.epochs = w.epochs;
  opt.threads = team;
  opt.step_size = w.step;
  opt.seed = 7;
  opt.keep_final_model = keep_model;
  solvers::Trace trace;
  {
    Scope s(spans, "core.train");
    trace = trainer.train(w.solver, opt, &t.fences);
  }
  if (spans) {
    for (std::size_t e = 1; e < t.fences.at.size(); ++e) {
      spans->add("solvers.epoch " + std::to_string(e), t.fences.at[e - 1], t.fences.at[e]);
    }
  }
  t.setup_seconds = trace.setup_seconds;
  t.final_objective = trace.points.empty() ? NAN : trace.points.back().objective;
  if (keep_model) p.last_model = std::move(trace.final_model);
  if (source) {
    t.cache = source->cache_stats();
    t.prefetch_depth = source->prefetch_depth();
  }
  return t;
}

double samples_per_second(const Trial& t, std::size_t rows) {
  const auto& at = t.fences.at;
  return static_cast<double>((at.size() - 2) * rows) / seconds_between(at[1], at.back());
}

/// Fence index at which the training objective first reaches `target`
/// (fence 0 is the initial model), or 0 when it never does.
std::size_t target_fence(const Trial& t, double target) {
  for (std::size_t e = 1; e < t.fences.objective.size(); ++e) {
    if (t.fences.objective[e] <= target) return e;
  }
  return 0;
}

/// Rows of a pack decoded through PackedSource::shard (cold, no prefetch),
/// digested in row order; `decode_ms` gets the mean per-shard decode time.
Digest packed_digest(const Program& p, double* decode_ms) {
  data::PackedOptions opt;
  opt.memory_budget_bytes = p.w.budget_bytes;
  opt.prefetch = false;
  const data::PackedSource source(p.dir + "/data.issp", opt);
  Digest d;
  double decode = 0;
  for (std::size_t s = 0; s < source.shard_count(); ++s) {
    const Clock::time_point a = Clock::now();
    const data::ShardPtr shard = source.shard(s);
    decode += seconds_between(a, Clock::now());
    d = digest_of(*shard->matrix, d);
  }
  if (decode_ms) *decode_ms = decode * 1e3 / static_cast<double>(source.shard_count());
  return d;
}

/// Times `body(reps)` over growing repetition counts until one batch takes
/// at least `min_s`, then returns the median per-rep seconds of 5 batches.
template <class Body>
double time_per_rep(Body&& body, double min_s = 0.02) {
  std::size_t reps = 1;
  for (;;) {
    const Clock::time_point a = Clock::now();
    body(reps);
    if (seconds_between(a, Clock::now()) >= min_s || reps >= (std::size_t{1} << 30)) break;
    reps *= 2;
  }
  std::vector<double> per;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point a = Clock::now();
    body(reps);
    per.push_back(seconds_between(a, Clock::now()) / static_cast<double>(reps));
  }
  return median(per);
}

/// The Eq. 12 sampling check. The sampler is set up as is_asgd sets it up
/// from the program's weights `program`: a PartitionPlan over `team`
/// workers and one BlockSequence per shard. Each worker draws 4 epochs of
/// its shard. The draws are binned by the rank of the benchmark's own
/// weight `own` (100 bins of equal row count), and each bin's expected
/// share is Eq. 12 within each shard, from `own`.
std::string check_sampling(const std::vector<double>& program, const std::vector<double>& own,
                           std::size_t team) {
  const std::size_t n = own.size(), bins = 100;
  std::vector<std::uint32_t> by_weight(n);
  for (std::uint32_t i = 0; i < n; ++i) by_weight[i] = i;
  std::stable_sort(by_weight.begin(), by_weight.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return own[a] < own[b]; });
  std::vector<std::size_t> bin(n);
  for (std::size_t r = 0; r < n; ++r) bin[by_weight[r]] = r * bins / n;
  partition::PartitionOptions popt;
  popt.shuffle_seed = 7 ^ 0x1517;
  const partition::PartitionPlan plan(program, team, popt);
  std::vector<double> observed(bins, 0), expected(bins, 0);
  double draws = 0;
  for (std::size_t t = 0; t < plan.num_partitions(); ++t) {
    const partition::Shard shard = plan.shard(t);
    const std::size_t local_n = shard.rows.size();
    double phi = 0;
    for (const std::uint32_t i : shard.rows) phi += own[i];
    for (const std::uint32_t i : shard.rows) expected[bin[i]] += 4.0 * static_cast<double>(local_n) * own[i] / phi;
    sampling::BlockSequence seq(sampling::BlockSequence::Mode::kIid, shard.probabilities, local_n, 1234 + t);
    for (std::size_t e = 1; e <= 4; ++e) {
      seq.begin_epoch(e, 1000 + e);
      for (std::size_t k = 0; k < local_n; ++k) observed[bin[shard.rows[seq.next()]]] += 1;
    }
    draws += 4.0 * static_cast<double>(local_n);
  }
  for (double& e : expected) e /= draws;
  return check_chi_square(observed, expected);
}

/// The program's Eq. 12 weights: per_sample_lipschitz over the program's
/// own view of the rows (the parse, or the pack decoded whole).
std::vector<double> program_weights(const Program& p) {
  const objectives::Regularization reg = objectives::Regularization::l1(p.w.l1);
  if (!p.w.packed) return objectives::per_sample_lipschitz(p.data, p.loss, reg);
  const data::PackedSource source(p.dir + "/data.issp");
  return objectives::per_sample_lipschitz(source.materialize(), p.loss, reg);
}

/// Per-layer measurements, each timed from outside through the layer's
/// public functions, each under a span. Adds the messages of the Eq. 12
/// weight and sampling checks to `errors` when they fail.
void measure_layers(Program& p, const Rows& rows, const std::vector<Trial>& trials, Spans& spans, Metrics& m,
                    std::vector<std::string>& errors) {
  const Workload& w = p.w;
  const std::size_t n = rows.rows();
  const std::vector<double> own = lipschitz(rows);
  std::vector<double> L;
  {
    Scope s(&spans, "check.importance");
    L = program_weights(p);
    for (const std::string& err : {check_weights(L, own), check_sampling(L, own, w.team)}) {
      if (!err.empty()) errors.push_back(err);
    }
  }
  const double mean_nnz = static_cast<double>(rows.nnz()) / static_cast<double>(n);
  volatile double sink = 0;

  {
    std::vector<double> load, setup;
    for (const Trial& t : trials) {
      load.push_back(t.load_seconds);
      setup.push_back(t.setup_seconds * 1e3);
    }
    m.put("io.libsvm_parse_s", w.packed ? 0 : median(load), "s");
    m.put("io.shardpack_open_ms", w.packed ? median(load) * 1e3 : 0, "ms");
    m.put("core.setup_ms", median(setup), "ms");
  }
  {
    Scope s(&spans, "partition.plan");
    partition::PartitionOptions popt;
    popt.shuffle_seed = 7 ^ 0x1517;
    const double sec = time_per_rep([&](std::size_t reps) {
      for (std::size_t r = 0; r < reps; ++r) {
        const partition::PartitionPlan plan(L, w.team, popt);
        sink = sink + plan.rho();
      }
    });
    m.put("partition.plan_ms", sec * 1e3, "ms");
  }
  {
    Scope s(&spans, "sampling.alias_build");
    const double sec = time_per_rep([&](std::size_t reps) {
      for (std::size_t r = 0; r < reps; ++r) {
        const sampling::AliasTable table(L);
        sink = sink + table.probability(0);
      }
    });
    m.put("sampling.alias_build_ms", sec * 1e3, "ms");
  }
  // Draw order: the Eq. 12 stream for the IS workloads, uniform for ASGD.
  std::vector<std::uint32_t> order;
  order.reserve(4 * n);
  double draw_ns = 0;
  {
    Scope s(&spans, "sampling.draw");
    const std::vector<double> uniform(n, 1.0);
    sampling::BlockSequence seq(sampling::BlockSequence::Mode::kIid, w.solver == "asgd" ? uniform : L, n, 7);
    const Clock::time_point a = Clock::now();
    for (std::size_t e = 1; e <= 4; ++e) {
      seq.begin_epoch(e, 1000 + e);
      while (seq.produced() < seq.epoch_length()) {
        const auto block = seq.next_block();
        order.insert(order.end(), block.begin(), block.end());
      }
    }
    draw_ns = seconds_between(a, Clock::now()) * 1e9 / static_cast<double>(order.size());
    m.put("sampling.draw_ns", draw_ns, "ns");
  }
  auto view = [&](std::uint32_t i) {
    const std::size_t b = rows.ptr[i], k = rows.ptr[i + 1] - b;
    return sparse::SparseVectorView({rows.col.data() + b, k}, {rows.val.data() + b, k});
  };
  double visited_nnz = 0;
  for (const std::uint32_t i : order) visited_nnz += static_cast<double>(rows.ptr[i + 1] - rows.ptr[i]);
  std::vector<double> model(rows.dim, 0.0);
  double gather_ns = 0, scatter_ns = 0;
  {
    Scope s(&spans, "sparse.gather");
    const Clock::time_point a = Clock::now();
    double acc = 0;
    for (const std::uint32_t i : order) acc += sparse::sparse_dot(model, view(i));
    sink = sink + acc;
    gather_ns = seconds_between(a, Clock::now()) * 1e9 / visited_nnz;
  }
  {
    Scope s(&spans, "sparse.scatter");
    const Clock::time_point a = Clock::now();
    for (const std::uint32_t i : order) sparse::sparse_axpy(model, 1e-9, view(i));
    scatter_ns = seconds_between(a, Clock::now()) * 1e9 / visited_nnz;
  }
  m.put("sparse.gather_ns_per_nnz", gather_ns, "ns");
  m.put("sparse.scatter_ns_per_nnz", scatter_ns, "ns");
  {
    Scope s(&spans, "distributed.apply_push");
    const objectives::Regularization reg = objectives::Regularization::l1(w.l1);
    const Clock::time_point a = Clock::now();
    for (const std::uint32_t i : order) {
      const std::size_t b = rows.ptr[i], k = rows.ptr[i + 1] - b;
      distributed::fenced::apply_push({rows.col.data() + b, k}, {rows.val.data() + b, k}, 0.1, 1e-9, reg,
                                      model);
    }
    m.put("distributed.apply_ns", seconds_between(a, Clock::now()) * 1e9 / static_cast<double>(order.size()),
          "ns");
  }
  {
    Scope s(&spans, "util.pool_fence");
    util::ThreadPool pool(w.team);
    pool.reserve(w.team);
    const std::function<void(std::size_t)> empty = [](std::size_t) {};
    const double sec = time_per_rep([&](std::size_t reps) {
      for (std::size_t r = 0; r < reps; ++r) pool.run(w.team, empty);
    });
    m.put("util.pool_fence_us", sec * 1e6, "us");
  }
  // Solver layer, from the traced trials' fence clocks.
  std::vector<double> epoch_ms, traced_rate, untraced_rate, misses, races, wasted, depth;
  for (const Trial& t : trials) {
    for (std::size_t e = 2; e < t.fences.at.size(); ++e) {
      if (t.traced) epoch_ms.push_back(seconds_between(t.fences.at[e - 1], t.fences.at[e]) * 1e3);
    }
    (t.traced ? traced_rate : untraced_rate).push_back(samples_per_second(t, n));
    if (t.cache) {
      const double epochs = static_cast<double>(w.epochs);
      misses.push_back(static_cast<double>(t.cache->misses) / epochs);
      races.push_back(static_cast<double>(t.cache->prefetch_races) / epochs);
      wasted.push_back(static_cast<double>(t.cache->prefetch_wasted) / epochs);
      depth.push_back(static_cast<double>(t.prefetch_depth));
    }
  }
  m.put("solvers.epoch_ms", median(epoch_ms), "ms");
  const double team_rate = median(traced_rate);
  m.put("solvers.unaccounted_ns_per_sample",
        1e9 * static_cast<double>(w.team) / team_rate -
            (draw_ns + (gather_ns + scatter_ns) * mean_nnz),
        "ns");
  m.put("trace.overhead_pct", 100.0 * (median(untraced_rate) - team_rate) / median(untraced_rate), "%");
  m.put("data.misses_per_epoch", median(misses), "count");
  m.put("data.prefetch_races_per_epoch", median(races), "count");
  m.put("data.prefetch_wasted_per_epoch", median(wasted), "count");
  m.put("data.prefetch_depth", median(depth), "count");
  {
    Scope s(&spans, "solvers.serial_trial");
    const Trial serial = train_once(p, 1, nullptr, false);
    m.put("solvers.serial_samples_per_s", samples_per_second(serial, n), "samples/s");
  }
  {
    Scope s(&spans, "metrics.eval");
    std::shared_ptr<data::PackedSource> source;
    if (w.packed) {
      data::PackedOptions opt;
      opt.memory_budget_bytes = w.budget_bytes;
      source = p.ctx->open_packed(p.dir + "/data.issp", opt);
    }
    const metrics::Evaluator eval =
        source ? metrics::Evaluator(*source, p.loss, objectives::Regularization::l1(w.l1), w.team, &p.ctx->pool())
               : metrics::Evaluator(p.data, p.loss, objectives::Regularization::l1(w.l1), w.team, &p.ctx->pool());
    const std::vector<double>& wfinal = p.last_model;
    std::vector<double> ms;
    for (int k = 0; k < 5; ++k) {
      const Clock::time_point a = Clock::now();
      sink = sink + eval.evaluate(wfinal).objective;
      ms.push_back(seconds_between(a, Clock::now()) * 1e3);
    }
    m.put("metrics.eval_ms", median(ms), "ms");
  }
  {
    Scope s(&spans, "data.shard_decode");
    double decode_ms = 0;
    if (w.packed) (void)packed_digest(p, &decode_ms);
    m.put("data.shard_decode_ms", decode_ms, "ms");
  }
  {
    Scope s(&spans, "net.rtt");
    auto listener = net::listen("tcp://127.0.0.1:0");
    listener->set_accept_timeout(10'000);
    // The echo side ends on the stop frame, or on the error it sees when
    // the measuring side fails and drops its endpoint (or never connects).
    std::thread echo([&] {
      try {
        auto peer = listener->accept();
        for (;;) {
          const net::Frame f = net::read_frame(*peer);
          if (f.type == 2) break;
          net::write_frame(*peer, 1, f.payload);
        }
      } catch (const net::TransportError&) {
      }
    });
    double sec = 0;
    try {
      auto ep = net::connect(listener->address());
      const std::string payload(16, 'x');
      sec = time_per_rep([&](std::size_t reps) {
        for (std::size_t r = 0; r < reps; ++r) {
          net::write_frame(*ep, 1, payload);
          sink = sink + static_cast<double>(net::read_frame(*ep).payload.size());
        }
      });
      net::write_frame(*ep, 2, "");
    } catch (...) {
      echo.join();
      throw;
    }
    echo.join();
    m.put("net.rtt_us", sec * 1e6, "us");
  }
  double messages = 0, bytes = 0, retries = 0;
  for (const Trial& t : trials) {
    if (!t.fences.have_report) continue;
    const double samples = static_cast<double>(w.epochs * n);
    messages = static_cast<double>(t.fences.report.messages) / samples;
    bytes = static_cast<double>(t.fences.report.bytes_sent) / samples;
    retries += static_cast<double>(t.fences.report.wire_retries);
  }
  m.put("distributed.messages_per_sample", messages, "count");
  m.put("distributed.bytes_per_sample", bytes, "bytes");
  m.put("distributed.wire_retries", retries, "count");
  (void)sink;
}

int cmd_run(const std::map<std::string, std::string>& f) {
  const Workload& w = find_workload(flag(f, "workload"));
  const double seconds = std::stod(flag(f, "seconds"));
  const bool trace = flag(f, "trace", "0") == "1";
  const bool probe = flag(f, "probe", "0") == "1";
  Program p{.w = w, .dir = flag(f, "data")};
  Spans spans(kProcessStart);
  std::vector<std::string> errors;

  // ---- first (cold) set-up: everything from the first call into the program
  {
    Scope s(trace ? &spans : nullptr, "setup.context");
    p.ctx = std::make_shared<core::ExecutionContext>(w.team);
  }
  std::vector<Trial> trials;
  // Trials alternate traced/untraced in a traced run, so the tracing cost
  // is the rate difference between the two halves.
  Clock::time_point window_start;
  double peak_rss = 0;
  for (;;) {
    const bool traced = trace && trials.size() % 2 == 0;
    trials.push_back(train_once(p, w.team, traced ? &spans : nullptr, true));
    if (trials.size() == 1) {
      // Peak RSS of one whole job (set-up, training, and the reaped PS
      // group); later trials would add this process's allocator history.
      peak_rss = peak_rss_mib();
      window_start = trials[0].fences.at.at(0);
    }
    if (trials.size() >= 3 && seconds_between(window_start, Clock::now()) >= seconds &&
        (!trace || trials.size() % 2 == 0)) {
      break;
    }
  }
  const double setup_s = seconds_between(kProcessStart, trials[0].fences.at.at(0));

  // ---- checks on every trial
  const std::size_t n = w.rows;
  std::vector<double> rate, to_target, samples_to_target;
  for (const Trial& t : trials) {
    if (t.fences.at.size() != w.epochs + 1) {
      errors.push_back("trial ran " + std::to_string(t.fences.at.size()) + " fences, expected " +
                       std::to_string(w.epochs + 1));
      continue;
    }
    const std::string e0 = check_initial_objective(t.fences.objective[0]);
    if (!e0.empty()) errors.push_back(e0);
    const std::size_t hit = target_fence(t, w.target);
    const std::string et = check_target_reached(
        *std::min_element(t.fences.objective.begin(), t.fences.objective.end()), w.target);
    if (!et.empty()) errors.push_back(et);
    if (hit > 0) {
      to_target.push_back(seconds_between(t.begin, t.fences.at[hit]));
      samples_to_target.push_back(static_cast<double>(hit * n));
    }
    rate.push_back(samples_per_second(t, n));
    if (w.process) {
      const std::string ep = t.fences.have_report
                                 ? check_ps_counts(t.fences.report.messages, w.epochs * n,
                                                   t.fences.report.wire_retries)
                                 : "no ParamServerReport published";
      if (!ep.empty()) errors.push_back(ep);
    }
    if (probe) {
      std::printf("PROBE load %.3fs fence0 %.3fs rate %.0f |", t.load_seconds,
                  seconds_between(t.begin, t.fences.at[0]), samples_per_second(t, n));
      for (const double o : t.fences.objective) std::printf(" %.6f", o);
      std::printf("\n");
    }
  }
  // The generated rows, read after the trials so that they stay out of
  // peak_rss_mb.
  const Rows rows = read_rows(p.dir + "/rows.bin");
  const Digest generated = perfbench::digest_of(rows);
  if (w.packed) {
    const std::string ed = check_digest("PackedSource::shard", packed_digest(p, nullptr), generated);
    if (!ed.empty()) errors.push_back(ed);
  } else {
    const std::string ed = check_digest("read_libsvm_file", digest_of(p.data), generated);
    if (!ed.empty()) errors.push_back(ed);
  }

  {
    const std::string ef = p.last_model.size() == rows.dim
                               ? check_final_objective(trials.back().final_objective,
                                                       logistic_objective(rows, p.last_model, w.l1))
                               : "final model has " + std::to_string(p.last_model.size()) + " coordinates";
    if (!ef.empty()) errors.push_back(ef);
  }

  Metrics m;
  if (trace) {
    measure_layers(p, rows, trials, spans, m, errors);
    const std::string out = flag(f, "trace-out", "");
    if (!out.empty() && !spans.write(out)) errors.push_back("cannot write trace " + out);
  } else {
    m.put("setup_s", setup_s, "s");
    m.put("samples_per_s", median(rate), "samples/s");
    m.put("time_to_target_s", median(to_target), "s");
    m.put("samples_to_target", median(samples_to_target), "samples");
    m.put("peak_rss_mb", peak_rss, "MiB");
  }
  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) errs += (i ? ",\"" : "\"") + json_escape(errors[i]) + "\"";
  errs += "]";
  std::printf("RESULT {\"attempted\":%zu,\"failed\":0,\"errors\":%s,\"metrics\":%s}\n", trials.size(),
              errs.c_str(), m.json().c_str());
  return 0;
}

// ---- selftest: every check rejects a corrupted value --------------------------

int cmd_selftest() {
  int failures = 0;
  auto expect = [&](const char* what, bool pass_ok, bool reject_ok) {
    const bool ok = pass_ok && reject_ok;
    std::printf("%-28s %s\n", what, ok ? "ok" : "FAILED");
    failures += ok ? 0 : 1;
  };
  const double ln2 = std::log(2.0);
  expect("initial objective", check_initial_objective(ln2).empty(),
         !check_initial_objective(ln2 * (1 + 1e-9)).empty());
  expect("final objective", check_final_objective(0.41, 0.41).empty(),
         !check_final_objective(0.41 * (1 + 1e-6), 0.41).empty());
  expect("target reached", check_target_reached(0.44, 0.45).empty(), !check_target_reached(0.46, 0.45).empty());

  // A news20 analog at scale 2 (20k rows), as the workloads generate it.
  Workload small = on_dataset("selftest", data::PaperDataset::kNews20, 2);
  const Rows rows = generate_rows(small, 3);
  const Digest good = perfbench::digest_of(rows);
  Rows bad_value = rows;
  bad_value.val[17] = std::nextafter(bad_value.val[17], 1.0);
  Rows bad_col = rows;
  bad_col.col[5] += 1;
  Rows bad_label = rows;
  bad_label.label[9] = -bad_label.label[9];
  expect("parsed/decoded rows", check_digest("x", perfbench::digest_of(rows), good).empty(),
         !check_digest("x", perfbench::digest_of(bad_value), good).empty() &&
             !check_digest("x", perfbench::digest_of(bad_col), good).empty() &&
             !check_digest("x", perfbench::digest_of(bad_label), good).empty());
  expect("ps messages / retries", check_ps_counts(500, 500, 0).empty(),
         !check_ps_counts(499, 500, 0).empty() && !check_ps_counts(500, 500, 1).empty());

  // Eq. 12: the library's weights pass; weights ∝ ‖x‖ (not ‖x‖²) and
  // uniform weights fail, both row by row and in the χ² of the draws.
  const sparse::CsrMatrix csr = to_csr(rows);
  const objectives::LogisticLoss loss;
  const std::vector<double> own = lipschitz(rows);
  const std::vector<double> library = objectives::per_sample_lipschitz(csr, loss, objectives::Regularization::l1(1e-7));
  std::vector<double> by_norm(own.size()), uniform(own.size(), 1.0);
  for (std::size_t i = 0; i < own.size(); ++i) by_norm[i] = std::sqrt(own[i]);
  expect("Eq. 12 weights", check_weights(library, own).empty(),
         !check_weights(by_norm, own).empty() && !check_weights(uniform, own).empty());
  expect("chi-square vs Eq. 12", check_sampling(library, own, 3).empty(),
         !check_sampling(by_norm, own, 3).empty() && !check_sampling(uniform, own, 3).empty());

  // The recomputed objective is the library's evaluator's objective.
  std::vector<double> w(rows.dim);
  Rng wr(4);
  for (double& x : w) x = wr.uniform() - 0.5;
  const metrics::Evaluator eval(csr, loss, objectives::Regularization::l1(1e-3));
  const double mine = logistic_objective(rows, w, 1e-3);
  expect("own objective == evaluator", check_final_objective(eval.evaluate(w).objective, mine).empty(),
         !check_final_objective(eval.evaluate(w).objective, mine * 1.001).empty());
  std::printf("selftest: %s\n", failures ? "FAILED" : "all checks reject corrupted values");
  return failures ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: driver gen|run|selftest [--flag value ...]\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const auto f = parse_flags(argc, argv, 2);
    if (cmd == "gen") return cmd_gen(f);
    if (cmd == "run") return cmd_run(f);
    if (cmd == "selftest") return cmd_selftest();
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "driver: %s\n", e.what());
  }
  return 2;
}
