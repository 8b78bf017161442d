// Frozen final-model hashes: the bit-parity floor for refactors of the
// solver loops.
//
// Every entry below is the FNV-1a hash of a final model's bytes, recorded
// before a refactor and required to survive it unchanged. The table covers:
//
//   * every registry solver × {in-memory matrix, chunked InMemorySource,
//     PackedSource} × 2 seeds (the real process-group backend excluded);
//   * ASGD and IS-ASGD over batch {1, 4} × {kWild, kAtomic} × the three
//     residencies, IS-ASGD's sequence modes and adaptive refresh, and the
//     sidecar-fed IS-ASGD setup over a pack.
//
// Parallel solvers run a team of 3 on a pool clamped to one OS thread: the
// clamp runs tids 0, 1, 2 in turn, so Hogwild interleaving is pinned and the
// per-worker partitions and seeds are still those of a 3-worker team.
//
// A mismatch prints the recomputed entry in table syntax. Edit the table only
// for a change that is meant to move the arithmetic, and say why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/execution.hpp"
#include "core/trainer.hpp"
#include "data/data_source.hpp"
#include "data/packed_source.hpp"
#include "data/synthetic.hpp"
#include "io/shardpack.hpp"
#include "objectives/logistic.hpp"
#include "solvers/solver.hpp"

namespace isasgd {
namespace {

constexpr std::size_t kShardRows = 64;
constexpr std::size_t kTeam = 3;

std::uint64_t fnv1a(const std::vector<double>& w) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(w.data());
  for (std::size_t i = 0; i < w.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// clang-format off
const std::map<std::string, std::uint64_t> kFrozen = {
    {"registry/dist.ps.is_asgd/inmem/s1", 0x9cac3eecc6ba7b60ULL},
    {"registry/dist.ps.is_asgd/inmem/s2", 0x6ea1ddb23cd0fea0ULL},
    {"registry/dist.ps.asgd/inmem/s1", 0xf08899565c69d427ULL},
    {"registry/dist.ps.asgd/inmem/s2", 0xba512ea5c00fcb02ULL},
    {"registry/dist.allreduce.sgd/inmem/s1", 0x6ef2a375cbda6af1ULL},
    {"registry/dist.allreduce.sgd/inmem/s2", 0x23519a31e0789484ULL},
    {"registry/sim.delayed_sgd/inmem/s1", 0xd776b94bc5217c8bULL},
    {"registry/sim.delayed_sgd/inmem/s2", 0x01dc256619287b9aULL},
    {"registry/sim.delayed_is_sgd/inmem/s1", 0xf0b1ab9d10b92879ULL},
    {"registry/sim.delayed_is_sgd/inmem/s2", 0x18e8a7cb71708bd9ULL},
    {"registry/ASGD/inmem/s1", 0x61e8a249462c7506ULL},
    {"registry/ASGD/inmem/s2", 0x25db17bd28800806ULL},
    {"registry/IS-ASGD/inmem/s1", 0xd37a87c1ef3183b0ULL},
    {"registry/IS-ASGD/inmem/s2", 0x381bc09bcdac4dfcULL},
    {"registry/IS-SGD/inmem/s1", 0x8c7718a35a9610c9ULL},
    {"registry/IS-SGD/inmem/s2", 0xc034ed292ad0d6a6ULL},
    {"registry/PROX-ASGD/inmem/s1", 0x8c174070a654078dULL},
    {"registry/PROX-ASGD/inmem/s2", 0xbaaa69339bc5cef2ULL},
    {"registry/IS-PROX-ASGD/inmem/s1", 0x1de0ced3df4eda4eULL},
    {"registry/IS-PROX-ASGD/inmem/s2", 0x2596898a7b0e985dULL},
    {"registry/PROX-SGD/inmem/s1", 0x0013d3fdec5f5eceULL},
    {"registry/PROX-SGD/inmem/s2", 0x5838c83511dc6750ULL},
    {"registry/IS-PROX-SGD/inmem/s1", 0xfcd7e9effb057f18ULL},
    {"registry/IS-PROX-SGD/inmem/s2", 0x47784d4a306c824cULL},
    {"registry/SAG/inmem/s1", 0xcbaedd99d2452d1eULL},
    {"registry/SAG/inmem/s2", 0x43ad1494fef5dc62ULL},
    {"registry/SAGA/inmem/s1", 0x6f9e609e4d81d15cULL},
    {"registry/SAGA/inmem/s2", 0x14c4350bf9c3fff7ULL},
    {"registry/SGD/inmem/s1", 0xd776b94bc5217c8bULL},
    {"registry/SGD/inmem/s2", 0x01dc256619287b9aULL},
    {"registry/SVRG-ASGD/inmem/s1", 0x1bf9f17523921fc9ULL},
    {"registry/SVRG-ASGD/inmem/s2", 0xc4b1a2bb65d5b4efULL},
    {"registry/SVRG-LAZY/inmem/s1", 0x83dfbddeb5f66adaULL},
    {"registry/SVRG-LAZY/inmem/s2", 0x1a0ee180fa5eef04ULL},
    {"registry/SVRG-SGD/inmem/s1", 0xd682e3ce6fe9e5dcULL},
    {"registry/SVRG-SGD/inmem/s2", 0xaa0d6d80a7947e29ULL},
    {"registry/dist.ps.is_asgd/chunked/s1", 0xa2c485820bdfde4eULL},
    {"registry/dist.ps.is_asgd/chunked/s2", 0xb63a94b22eaf91dfULL},
    {"registry/dist.ps.asgd/chunked/s1", 0x9c53929acc0e0d89ULL},
    {"registry/dist.ps.asgd/chunked/s2", 0xc4d3e143eb1d1b3cULL},
    {"registry/dist.allreduce.sgd/chunked/s1", 0x6ef2a375cbda6af1ULL},
    {"registry/dist.allreduce.sgd/chunked/s2", 0x23519a31e0789484ULL},
    {"registry/sim.delayed_sgd/chunked/s1", 0xd776b94bc5217c8bULL},
    {"registry/sim.delayed_sgd/chunked/s2", 0x01dc256619287b9aULL},
    {"registry/sim.delayed_is_sgd/chunked/s1", 0xf0b1ab9d10b92879ULL},
    {"registry/sim.delayed_is_sgd/chunked/s2", 0x18e8a7cb71708bd9ULL},
    {"registry/ASGD/chunked/s1", 0xd55e95133c378634ULL},
    {"registry/ASGD/chunked/s2", 0x3c1dafcfae7d1d6cULL},
    {"registry/IS-ASGD/chunked/s1", 0xd37a87c1ef3183b0ULL},
    {"registry/IS-ASGD/chunked/s2", 0x381bc09bcdac4dfcULL},
    {"registry/IS-SGD/chunked/s1", 0x8c7718a35a9610c9ULL},
    {"registry/IS-SGD/chunked/s2", 0xc034ed292ad0d6a6ULL},
    {"registry/PROX-ASGD/chunked/s1", 0x8c174070a654078dULL},
    {"registry/PROX-ASGD/chunked/s2", 0xbaaa69339bc5cef2ULL},
    {"registry/IS-PROX-ASGD/chunked/s1", 0x1de0ced3df4eda4eULL},
    {"registry/IS-PROX-ASGD/chunked/s2", 0x2596898a7b0e985dULL},
    {"registry/PROX-SGD/chunked/s1", 0x0013d3fdec5f5eceULL},
    {"registry/PROX-SGD/chunked/s2", 0x5838c83511dc6750ULL},
    {"registry/IS-PROX-SGD/chunked/s1", 0xfcd7e9effb057f18ULL},
    {"registry/IS-PROX-SGD/chunked/s2", 0x47784d4a306c824cULL},
    {"registry/SAG/chunked/s1", 0xcbaedd99d2452d1eULL},
    {"registry/SAG/chunked/s2", 0x43ad1494fef5dc62ULL},
    {"registry/SAGA/chunked/s1", 0x6f9e609e4d81d15cULL},
    {"registry/SAGA/chunked/s2", 0x14c4350bf9c3fff7ULL},
    {"registry/SGD/chunked/s1", 0xd55e95133c378634ULL},
    {"registry/SGD/chunked/s2", 0x3c1dafcfae7d1d6cULL},
    {"registry/SVRG-ASGD/chunked/s1", 0x1bf9f17523921fc9ULL},
    {"registry/SVRG-ASGD/chunked/s2", 0xc4b1a2bb65d5b4efULL},
    {"registry/SVRG-LAZY/chunked/s1", 0x83dfbddeb5f66adaULL},
    {"registry/SVRG-LAZY/chunked/s2", 0x1a0ee180fa5eef04ULL},
    {"registry/SVRG-SGD/chunked/s1", 0xd682e3ce6fe9e5dcULL},
    {"registry/SVRG-SGD/chunked/s2", 0xaa0d6d80a7947e29ULL},
    {"registry/dist.ps.is_asgd/packed/s1", 0xa2c485820bdfde4eULL},
    {"registry/dist.ps.is_asgd/packed/s2", 0xb63a94b22eaf91dfULL},
    {"registry/dist.ps.asgd/packed/s1", 0x9c53929acc0e0d89ULL},
    {"registry/dist.ps.asgd/packed/s2", 0xc4d3e143eb1d1b3cULL},
    {"registry/dist.allreduce.sgd/packed/s1", 0x6ef2a375cbda6af1ULL},
    {"registry/dist.allreduce.sgd/packed/s2", 0x23519a31e0789484ULL},
    {"registry/sim.delayed_sgd/packed/s1", 0xd776b94bc5217c8bULL},
    {"registry/sim.delayed_sgd/packed/s2", 0x01dc256619287b9aULL},
    {"registry/sim.delayed_is_sgd/packed/s1", 0xf0b1ab9d10b92879ULL},
    {"registry/sim.delayed_is_sgd/packed/s2", 0x18e8a7cb71708bd9ULL},
    {"registry/ASGD/packed/s1", 0xd55e95133c378634ULL},
    {"registry/ASGD/packed/s2", 0x3c1dafcfae7d1d6cULL},
    {"registry/IS-ASGD/packed/s1", 0xd37a87c1ef3183b0ULL},
    {"registry/IS-ASGD/packed/s2", 0x381bc09bcdac4dfcULL},
    {"registry/IS-SGD/packed/s1", 0x8c7718a35a9610c9ULL},
    {"registry/IS-SGD/packed/s2", 0xc034ed292ad0d6a6ULL},
    {"registry/PROX-ASGD/packed/s1", 0x8c174070a654078dULL},
    {"registry/PROX-ASGD/packed/s2", 0xbaaa69339bc5cef2ULL},
    {"registry/IS-PROX-ASGD/packed/s1", 0x1de0ced3df4eda4eULL},
    {"registry/IS-PROX-ASGD/packed/s2", 0x2596898a7b0e985dULL},
    {"registry/PROX-SGD/packed/s1", 0x0013d3fdec5f5eceULL},
    {"registry/PROX-SGD/packed/s2", 0x5838c83511dc6750ULL},
    {"registry/IS-PROX-SGD/packed/s1", 0xfcd7e9effb057f18ULL},
    {"registry/IS-PROX-SGD/packed/s2", 0x47784d4a306c824cULL},
    {"registry/SAG/packed/s1", 0xcbaedd99d2452d1eULL},
    {"registry/SAG/packed/s2", 0x43ad1494fef5dc62ULL},
    {"registry/SAGA/packed/s1", 0x6f9e609e4d81d15cULL},
    {"registry/SAGA/packed/s2", 0x14c4350bf9c3fff7ULL},
    {"registry/SGD/packed/s1", 0xd55e95133c378634ULL},
    {"registry/SGD/packed/s2", 0x3c1dafcfae7d1d6cULL},
    {"registry/SVRG-ASGD/packed/s1", 0x1bf9f17523921fc9ULL},
    {"registry/SVRG-ASGD/packed/s2", 0xc4b1a2bb65d5b4efULL},
    {"registry/SVRG-LAZY/packed/s1", 0x83dfbddeb5f66adaULL},
    {"registry/SVRG-LAZY/packed/s2", 0x1a0ee180fa5eef04ULL},
    {"registry/SVRG-SGD/packed/s1", 0xd682e3ce6fe9e5dcULL},
    {"registry/SVRG-SGD/packed/s2", 0xaa0d6d80a7947e29ULL},
    {"sweep/ASGD/inmem/b1/wild", 0x65f3333041e69a5eULL},
    {"sweep/ASGD/inmem/b1/atomic", 0x65f3333041e69a5eULL},
    {"sweep/ASGD/inmem/b4/wild", 0xea45fecb6237a9daULL},
    {"sweep/ASGD/inmem/b4/atomic", 0xea45fecb6237a9daULL},
    {"sweep/IS-ASGD/inmem/b1/wild", 0xc9206352993a056fULL},
    {"sweep/IS-ASGD/inmem/b1/atomic", 0xc9206352993a056fULL},
    {"sweep/IS-ASGD/inmem/b4/wild", 0xe36a39ddb9b6b5b2ULL},
    {"sweep/IS-ASGD/inmem/b4/atomic", 0xe36a39ddb9b6b5b2ULL},
    {"sweep/ASGD/chunked/b1/wild", 0xe2714723aba26874ULL},
    {"sweep/ASGD/chunked/b1/atomic", 0xe2714723aba26874ULL},
    {"sweep/ASGD/chunked/b4/wild", 0x8f78bffa19aa8d77ULL},
    {"sweep/ASGD/chunked/b4/atomic", 0x8f78bffa19aa8d77ULL},
    {"sweep/IS-ASGD/chunked/b1/wild", 0xc9206352993a056fULL},
    {"sweep/IS-ASGD/chunked/b1/atomic", 0xc9206352993a056fULL},
    {"sweep/IS-ASGD/chunked/b4/wild", 0xe36a39ddb9b6b5b2ULL},
    {"sweep/IS-ASGD/chunked/b4/atomic", 0xe36a39ddb9b6b5b2ULL},
    {"sweep/ASGD/packed/b1/wild", 0xe2714723aba26874ULL},
    {"sweep/ASGD/packed/b1/atomic", 0xe2714723aba26874ULL},
    {"sweep/ASGD/packed/b4/wild", 0x8f78bffa19aa8d77ULL},
    {"sweep/ASGD/packed/b4/atomic", 0x8f78bffa19aa8d77ULL},
    {"sweep/IS-ASGD/packed/b1/wild", 0xc9206352993a056fULL},
    {"sweep/IS-ASGD/packed/b1/atomic", 0xc9206352993a056fULL},
    {"sweep/IS-ASGD/packed/b4/wild", 0xe36a39ddb9b6b5b2ULL},
    {"sweep/IS-ASGD/packed/b4/atomic", 0xe36a39ddb9b6b5b2ULL},
    {"modes/IS-ASGD/pregenerate/b1", 0x913b9f1ec97dd227ULL},
    {"modes/IS-ASGD/pregenerate/b4", 0x671f386cf41640daULL},
    {"modes/IS-ASGD/reshuffle/b1", 0x78a6591c248637fdULL},
    {"modes/IS-ASGD/reshuffle/b4", 0xe2095a2b0b1a8201ULL},
    {"modes/IS-ASGD/stratified/b1", 0xbe687bfb2e1dbf03ULL},
    {"modes/IS-ASGD/stratified/b4", 0x40147d2c2bba60bfULL},
    {"modes/IS-ASGD/adaptive/b1", 0x97b236fedb820318ULL},
    {"modes/IS-ASGD/adaptive/b4", 0x84d01efef9377109ULL},
    {"sidecar/IS-ASGD/static/b1", 0x4f15a2425ecc06dbULL},
    {"sidecar/IS-ASGD/static/b4", 0xb484b0517ffac46fULL},
    {"sidecar/IS-ASGD/adaptive/b1", 0xf3eb5e19b29d919cULL},
    {"sidecar/IS-ASGD/adaptive/b4", 0x2072ec59ed4bac8dULL},
};
// clang-format on

/// One dataset in three residencies, all trained on one single-thread pool.
struct Residencies {
  sparse::CsrMatrix data;
  std::string pack_path;
  core::ExecutionContextPtr ctx;
  std::unique_ptr<data::InMemorySource> chunked;
  std::unique_ptr<data::PackedSource> packed;
  objectives::LogisticLoss loss;

  Residencies() {
    data::SyntheticSpec spec;
    spec.rows = 400;
    spec.dim = 120;
    spec.mean_row_nnz = 8;
    spec.seed = 7;
    data = data::generate(spec);
    pack_path = ::testing::TempDir() + "final_model_hash.issp";
    io::write_shardpack(pack_path, data, {.shard_rows = kShardRows});
    ctx = std::make_shared<core::ExecutionContext>(
        1, util::ThreadPool::Options{.max_workers = 1});
    chunked = std::make_unique<data::InMemorySource>(data, kShardRows);
    // A budget of a few shards: packed runs evict and re-decode.
    data::PackedOptions popt;
    popt.memory_budget_bytes = 16 << 10;
    packed = std::make_unique<data::PackedSource>(pack_path, popt,
                                                  &ctx->pool());
  }
  ~Residencies() {
    packed.reset();
    std::remove(pack_path.c_str());
  }

  [[nodiscard]] core::Trainer trainer(const std::string& residency,
                                      objectives::Regularization reg) const {
    core::TrainerBuilder b;
    if (residency == "inmem") {
      b.data(data);
    } else if (residency == "chunked") {
      b.source(*chunked);
    } else {
      b.source(*packed);
    }
    return b.objective(loss).regularization(reg).execution(ctx).build();
  }
};

const Residencies& residencies() {
  static const Residencies r;
  return r;
}

const char* const kResidencies[] = {"inmem", "chunked", "packed"};

solvers::SolverOptions base_options(std::uint64_t seed) {
  solvers::SolverOptions opt;
  opt.epochs = 3;
  opt.threads = kTeam;
  opt.step_size = 0.3;
  opt.seed = seed;
  opt.keep_final_model = true;
  return opt;
}

/// Checks every computed entry against the frozen table, and that the table
/// holds no entry under `prefix` that was not computed.
void check(const std::string& prefix,
           const std::vector<std::pair<std::string, std::uint64_t>>& got) {
  std::ostringstream regenerated;
  std::size_t mismatches = 0;
  for (const auto& [key, hash] : got) {
    const auto it = kFrozen.find(key);
    if (it == kFrozen.end() || it->second != hash) ++mismatches;
    char line[160];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},\n",
                  key.c_str(), static_cast<unsigned long long>(hash));
    regenerated << line;
  }
  std::size_t frozen = 0;
  for (const auto& [key, hash] : kFrozen) {
    frozen += key.compare(0, prefix.size(), prefix) == 0;
  }
  EXPECT_EQ(mismatches, 0u) << "recomputed entries:\n" << regenerated.str();
  EXPECT_EQ(frozen, got.size()) << "frozen vs computed entries under '" << prefix << "'";
}

TEST(FinalModelHash, EveryRegistrySolverInEveryResidency) {
  const Residencies& r = residencies();
  const auto& registry = solvers::SolverRegistry::instance();
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const char* residency : kResidencies) {
    const core::Trainer trainer =
        r.trainer(residency, objectives::Regularization::l2(1e-3));
    for (const std::string& name : registry.list()) {
      for (const std::uint64_t seed : {1u, 2u}) {
        const auto trace = trainer.train(name, base_options(seed));
        ASSERT_EQ(trace.final_model.size(), r.data.dim()) << name;
        got.emplace_back("registry/" + name + "/" + residency + "/s" +
                             std::to_string(seed),
                         fnv1a(trace.final_model));
      }
    }
  }
  check("registry/", got);
}

TEST(FinalModelHash, AsgdAndIsAsgdOverBatchAndUpdatePolicy) {
  const Residencies& r = residencies();
  std::vector<std::pair<std::string, std::uint64_t>> got;
  for (const char* residency : kResidencies) {
    const core::Trainer trainer =
        r.trainer(residency, objectives::Regularization::l1(1e-4));
    for (const char* name : {"ASGD", "IS-ASGD"}) {
      for (const std::size_t b : {1u, 4u}) {
        for (const auto policy :
             {solvers::UpdatePolicy::kWild, solvers::UpdatePolicy::kAtomic}) {
          solvers::SolverOptions opt = base_options(3);
          opt.batch_size = b;
          opt.update_policy = policy;
          const auto trace = trainer.train(name, opt);
          got.emplace_back(std::string("sweep/") + name + "/" + residency +
                               "/b" + std::to_string(b) + "/" +
                               solvers::update_policy_name(policy),
                           fnv1a(trace.final_model));
        }
      }
    }
  }
  check("sweep/", got);
}

TEST(FinalModelHash, IsAsgdSequenceModesAndAdaptiveRefresh) {
  using Mode = solvers::SolverOptions::SequenceMode;
  const Residencies& r = residencies();
  std::vector<std::pair<std::string, std::uint64_t>> got;
  const core::Trainer trainer =
      r.trainer("inmem", objectives::Regularization::l2(1e-3));
  const std::pair<const char*, Mode> modes[] = {
      {"pregenerate", Mode::kPregenerate},
      {"reshuffle", Mode::kReshuffle},
      {"stratified", Mode::kStratified},
      {"adaptive", Mode::kPregenerate}};
  for (const auto& [label, mode] : modes) {
    for (const std::size_t b : {1u, 4u}) {
      solvers::SolverOptions opt = base_options(4);
      opt.epochs = 4;
      opt.batch_size = b;
      opt.sequence_mode = mode;
      opt.adaptive_importance = std::string(label) == "adaptive";
      opt.adaptive_interval = 2;
      const auto trace = trainer.train("IS-ASGD", opt);
      got.emplace_back(std::string("modes/IS-ASGD/") + label + "/b" +
                           std::to_string(b),
                       fnv1a(trace.final_model));
    }
  }
  check("modes/", got);
}

TEST(FinalModelHash, SidecarFedIsAsgdOverAPack) {
  // The pack's row-stats sidecar feeds IS-ASGD's importance vector and the
  // adaptive row norms; these must equal the in-memory hashes' arithmetic.
  const Residencies& r = residencies();
  ASSERT_NE(r.packed->row_stats(), nullptr);
  std::vector<std::pair<std::string, std::uint64_t>> got;
  const core::Trainer trainer =
      r.trainer("packed", objectives::Regularization::l2(1e-3));
  for (const bool adaptive : {false, true}) {
    for (const std::size_t b : {1u, 4u}) {
      solvers::SolverOptions opt = base_options(5);
      opt.batch_size = b;
      opt.adaptive_importance = adaptive;
      const auto trace = trainer.train("IS-ASGD", opt);
      got.emplace_back(std::string("sidecar/IS-ASGD/") +
                           (adaptive ? "adaptive" : "static") + "/b" +
                           std::to_string(b),
                       fnv1a(trace.final_model));
    }
  }
  check("sidecar/", got);
}

}  // namespace
}  // namespace isasgd
