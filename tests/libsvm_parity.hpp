// Stream-vs-file parity helpers shared by the LibSVM suites: the outcome of
// one parse (the matrix down to its bits, or the error message) through
// read_libsvm(istream) and through the file reader cut into a forced number
// of byte ranges.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/libsvm.hpp"
#include "io/libsvm_detail.hpp"

namespace isasgd::io::parity {

inline std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// A parse reduced to comparable bits: the error message, or dim, row_ptr,
/// col_idx and the bit patterns of every value and label.
struct Outcome {
  std::string error;
  std::size_t dim = 0;
  std::vector<std::size_t> row_ptr;
  std::vector<sparse::index_t> col_idx;
  std::vector<std::uint64_t> value_bits;
  std::vector<std::uint64_t> label_bits;
};

template <class Read>
Outcome outcome_of(const Read& read) {
  Outcome o;
  try {
    const sparse::CsrMatrix m = read();
    o.dim = m.dim();
    o.row_ptr = m.row_ptr();
    o.col_idx = m.col_idx();
    for (double v : m.values()) o.value_bits.push_back(bits_of(v));
    for (double y : m.labels()) o.label_bits.push_back(bits_of(y));
  } catch (const std::runtime_error& e) {
    o.error = e.what();
  }
  return o;
}

inline Outcome stream_outcome(const std::string& text,
                              const LibsvmReadOptions& options = {}) {
  return outcome_of([&] {
    std::istringstream in(text);
    return read_libsvm(in, options);
  });
}

inline Outcome file_outcome(const std::string& path,
                            const LibsvmReadOptions& options,
                            std::size_t parts) {
  return outcome_of(
      [&] { return detail::read_libsvm_file_parts(path, options, parts); });
}

/// Non-fatal expectation that two outcomes agree bit for bit.
inline void expect_same(const Outcome& want, const Outcome& got) {
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.dim, want.dim);
  EXPECT_TRUE(got.row_ptr == want.row_ptr) << "row_ptr differs";
  EXPECT_TRUE(got.col_idx == want.col_idx) << "col_idx differs";
  EXPECT_TRUE(got.value_bits == want.value_bits) << "value bits differ";
  EXPECT_TRUE(got.label_bits == want.label_bits) << "label bits differ";
}

/// A per-process temp file, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("isasgd_" + tag + "_" + std::to_string(::getpid()) + ".svm"))
                  .string()) {}
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;
  ~TempFile() { std::remove(path_.c_str()); }

  /// Replaces the file's contents with `text`, byte for byte.
  const std::string& write(const std::string& text) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + path_);
    return path_;
  }

 private:
  std::string path_;
};

}  // namespace isasgd::io::parity
