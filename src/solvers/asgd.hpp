// ASGD — Hogwild-style lock-free asynchronous SGD (Recht et al. 2011),
// the algorithm the paper sets out to accelerate.
//
// ASGD and IS-ASGD are presets of one worker loop (detail::HogwildLoop,
// solvers/async_runner.hpp) with three draw policies: in-memory ASGD draws
// uniformly i.i.d. from the worker's slice of a shuffled order at weight 1.0
// and fills every mini-batch (⌈local_n/b⌉·b draws per worker per epoch);
// sharded ASGD walks the worker's slice of each shard's ShardedSequence row
// order; IS-ASGD draws from its BlockSequence (is_asgd.hpp). Workers update
// the shared model per the configured UpdatePolicy, without synchronisation.
#pragma once

#include "objectives/objective.hpp"
#include "solvers/options.hpp"
#include "solvers/trace.hpp"
#include "sparse/csr_matrix.hpp"

namespace isasgd::util {
class ThreadPool;
}

namespace isasgd::core {
class NumaPolicy;
}

namespace isasgd::solvers {

/// Runs lock-free asynchronous SGD with `options.threads` workers drawn
/// from `pool` (the process-wide default pool when null). `numa` (optional)
/// enables NUMA model placement: striped first-touch model allocation plus
/// shard→node worker pinning (shards are uniform here, so row counts stand
/// in for IS-ASGD's Φ totals). Never changes results.
Trace run_asgd(const sparse::CsrMatrix& data,
               const objectives::Objective& objective,
               const SolverOptions& options, const EvalFn& eval,
               TrainingObserver* observer = nullptr,
               util::ThreadPool* pool = nullptr,
               const core::NumaPolicy* numa = nullptr);

}  // namespace isasgd::solvers
