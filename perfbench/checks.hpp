// Output checks. Each returns "" when the value passes and a message naming
// the failure otherwise; `driver selftest` feeds every one a corrupted value
// and requires the message.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "rows.hpp"

namespace perfbench {

inline std::string fmt(const char* f, double a, double b) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// The model starts at zero: every loss term is ln 2 and the L1 term is 0.
inline std::string check_initial_objective(double objective) {
  const double ln2 = std::log(2.0);
  if (!(std::abs(objective - ln2) <= 1e-12)) {
    return fmt("epoch-0 objective %.17g != ln 2 (%.17g)", objective, ln2);
  }
  return "";
}

/// The program's final objective against the benchmark's own recomputation.
inline std::string check_final_objective(double reported, double recomputed) {
  if (!(std::abs(reported - recomputed) <= 1e-9 * std::abs(recomputed))) {
    return fmt("final objective %.17g != recomputed %.17g", reported, recomputed);
  }
  return "";
}

/// The workload's fixed target must be reached within the epochs run.
inline std::string check_target_reached(double best_objective, double target) {
  if (!(best_objective <= target)) {
    return fmt("target %.17g not reached (best objective %.17g)", target, best_objective);
  }
  return "";
}

/// The program's view of the rows (parsed or decoded) against the rows
/// the benchmark generated.
inline std::string check_digest(const char* what, const Digest& program, const Digest& generated) {
  if (!(program == generated)) {
    return std::string(what) + " rows differ: program " + program.str() + " vs generated " +
           generated.str();
  }
  return "";
}

/// One push per sample per epoch, and no retransmits on a healthy wire.
inline std::string check_ps_counts(std::uint64_t messages, std::uint64_t expected,
                                   std::uint64_t wire_retries) {
  if (messages != expected) {
    return "ParamServerReport::messages " + std::to_string(messages) + " != epochs x rows " +
           std::to_string(expected);
  }
  if (wire_retries != 0) return "wire_retries " + std::to_string(wire_retries) + " != 0";
  return "";
}

/// The program's importance weights (per_sample_lipschitz) against the
/// benchmark's own Eq. 12 weights, row by row.
inline std::string check_weights(const std::vector<double>& program, const std::vector<double>& own) {
  if (program.size() != own.size()) {
    return fmt("program has %.0f importance weights, expected %.0f", static_cast<double>(program.size()),
               static_cast<double>(own.size()));
  }
  for (std::size_t i = 0; i < own.size(); ++i) {
    if (!(std::abs(program[i] - own[i]) <= 1e-12 * std::abs(own[i]))) {
      return "importance weight of row " + std::to_string(i) +
             fmt(" is %.17g, Eq. 12 gives %.17g", program[i], own[i]);
    }
  }
  return "";
}

/// Pearson χ² of observed bin counts against expected probabilities,
/// rejected when the upper-tail p-value is below 1e-6 (Wilson–Hilferty).
inline std::string check_chi_square(const std::vector<double>& observed,
                                    const std::vector<double>& expected_prob) {
  double total = 0;
  for (const double o : observed) total += o;
  double chi2 = 0;
  for (std::size_t b = 0; b < observed.size(); ++b) {
    const double e = expected_prob[b] * total;
    chi2 += (observed[b] - e) * (observed[b] - e) / e;
  }
  const double k = static_cast<double>(observed.size() - 1);
  // z of the Wilson–Hilferty cube-root normal approximation; p < 1e-6 ⇔ z > 4.75.
  const double z = (std::cbrt(chi2 / k) - (1 - 2 / (9 * k))) / std::sqrt(2 / (9 * k));
  if (!(z <= 4.75)) {
    return fmt("BlockSequence draws fail chi-square against Eq. 12: chi2=%.1f over %.0f dof", chi2, k);
  }
  return "";
}

}  // namespace perfbench
