// The benchmark's reference rows: a raw row file the checks read back, a
// LibSVM writer, a content digest, and the benchmark's own Eq. 12 weights
// and objective.
//
// None of this calls into the library. The rows come from the library's
// calibrated paper-dataset generator (driver.cpp, `gen`), but once written
// they are the reference every output check compares the program against.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64, for the self-test's corrupted draws.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Row-major sparse rows with ±1 labels; columns strictly increasing.
struct Rows {
  std::size_t dim = 0;
  std::vector<std::uint64_t> ptr{0};
  std::vector<std::uint32_t> col;
  std::vector<double> val;
  std::vector<double> label;

  [[nodiscard]] std::size_t rows() const { return label.size(); }
  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

/// Significant decimal digits of every value, in the LibSVM text and in
/// the reference rows alike (LibSVM dumps of real data carry about as many).
constexpr int kValueDigits = 6;

/// `v` rounded to kValueDigits significant digits: the double that strtod
/// gives for its "%.6g" text, so the text and the reference agree exactly.
inline double round_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", kValueDigits, v);
  return std::strtod(buf, nullptr);
}

/// Content digest: the aggregates the parse/decode checks compare, plus an
/// FNV-1a hash over every column id, value bit pattern and label.
struct Digest {
  std::uint64_t rows = 0;
  std::uint64_t nnz = 0;
  double value_sum = 0;
  std::uint64_t col_sum = 0;
  std::int64_t label_sum = 0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void mix(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (x >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  /// Adds one row (columns zero-based).
  template <class Cols, class Vals>
  void add_row(const Cols& cols, const Vals& vals, std::size_t n, double y) {
    ++rows;
    nnz += n;
    mix(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double v = vals[k];
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof v);
      __builtin_memcpy(&bits, &v, sizeof bits);
      value_sum += v;
      col_sum += cols[k];
      mix(cols[k]);
      mix(bits);
    }
    label_sum += y > 0 ? 1 : -1;
    mix(y > 0 ? 1 : 2);
  }
  [[nodiscard]] bool operator==(const Digest& o) const {
    return rows == o.rows && nnz == o.nnz && value_sum == o.value_sum &&
           col_sum == o.col_sum && label_sum == o.label_sum && hash == o.hash;
  }
  [[nodiscard]] std::string str() const {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "rows=%llu nnz=%llu value_sum=%.17g col_sum=%llu label_sum=%lld hash=%016llx",
                  static_cast<unsigned long long>(rows), static_cast<unsigned long long>(nnz),
                  value_sum, static_cast<unsigned long long>(col_sum),
                  static_cast<long long>(label_sum), static_cast<unsigned long long>(hash));
    return buf;
  }
};

inline Digest digest_of(const Rows& r) {
  Digest d;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    const std::size_t b = r.ptr[i], n = r.ptr[i + 1] - b;
    d.add_row(r.col.data() + b, r.val.data() + b, n, r.label[i]);
  }
  return d;
}

// ---- raw row file: "PBRW", u64 rows, dim, nnz, then ptr, col, val, label --

inline void write_rows(const std::string& path, const Rows& r) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot write " + path);
  const std::uint64_t head[4] = {0x57524250, r.rows(), r.dim, r.nnz()};
  bool ok = std::fwrite(head, sizeof head, 1, f) == 1;
  ok = ok && std::fwrite(r.ptr.data(), 8, r.ptr.size(), f) == r.ptr.size();
  ok = ok && std::fwrite(r.col.data(), 4, r.col.size(), f) == r.col.size();
  ok = ok && std::fwrite(r.val.data(), 8, r.val.size(), f) == r.val.size();
  ok = ok && std::fwrite(r.label.data(), 8, r.label.size(), f) == r.label.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) throw std::runtime_error("short write to " + path);
}

inline Rows read_rows(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("cannot read " + path);
  std::uint64_t head[4];
  Rows r;
  bool ok = std::fread(head, sizeof head, 1, f) == 1 && head[0] == 0x57524250;
  if (ok) {
    r.dim = head[2];
    r.ptr.resize(head[1] + 1);
    r.col.resize(head[3]);
    r.val.resize(head[3]);
    r.label.resize(head[1]);
    ok = std::fread(r.ptr.data(), 8, r.ptr.size(), f) == r.ptr.size() &&
         std::fread(r.col.data(), 4, r.col.size(), f) == r.col.size() &&
         std::fread(r.val.data(), 8, r.val.size(), f) == r.val.size() &&
         std::fread(r.label.data(), 8, r.label.size(), f) == r.label.size();
  }
  std::fclose(f);
  if (!ok) throw std::runtime_error("malformed row file " + path);
  return r;
}

/// LibSVM text, 1-based columns; values already rounded by round_value, so
/// "%.6g" reproduces them exactly.
inline void write_libsvm_text(const std::string& path, const Rows& r) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::vector<char> buf(1 << 20);
  std::setvbuf(f, buf.data(), _IOFBF, buf.size());
  for (std::size_t i = 0; i < r.rows(); ++i) {
    std::fputs(r.label[i] > 0 ? "+1" : "-1", f);
    for (std::uint64_t k = r.ptr[i]; k < r.ptr[i + 1]; ++k) {
      std::fprintf(f, " %u:%.*g", r.col[k] + 1, kValueDigits, r.val[k]);
    }
    std::fputc('\n', f);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("short write to " + path);
}

/// Eq. 12 importance of each row for the logistic loss: L_i = ¼‖x_i‖²
/// (the L1 regulariser adds no smoothness term).
inline std::vector<double> lipschitz(const Rows& r) {
  std::vector<double> l(r.rows());
  for (std::size_t i = 0; i < r.rows(); ++i) {
    double s = 0;
    for (std::uint64_t k = r.ptr[i]; k < r.ptr[i + 1]; ++k) s += r.val[k] * r.val[k];
    l[i] = 0.25 * s;
  }
  return l;
}

/// ψ = (mean L)² / mean L² and ρ = (mean L)²·(1/ψ − 1), as in the paper's
/// Table 1, of the weights `l`.
struct ImportanceStats {
  double psi = 0;
  double rho = 0;
};
inline ImportanceStats importance_stats(const std::vector<double>& l) {
  double s = 0, s2 = 0;
  for (const double x : l) {
    s += x;
    s2 += x * x;
  }
  const double n = static_cast<double>(l.size());
  const double mean = s / n;
  const double psi = mean * mean / (s2 / n);
  return {psi, mean * mean * (1 / psi - 1)};
}

/// F(w) = mean log(1 + exp(−y·w·x)) + η‖w‖₁, with a loop of its own.
inline double logistic_objective(const Rows& r, const std::vector<double>& w, double l1) {
  double loss = 0;
  for (std::size_t i = 0; i < r.rows(); ++i) {
    double m = 0;
    for (std::uint64_t k = r.ptr[i]; k < r.ptr[i + 1]; ++k) m += w[r.col[k]] * r.val[k];
    const double z = -r.label[i] * m;
    loss += z > 0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
  }
  double norm1 = 0;
  for (const double x : w) norm1 += std::abs(x);
  return loss / static_cast<double>(r.rows()) + l1 * norm1;
}

}  // namespace perfbench
