#include "io/libsvm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <new>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "io/libsvm_detail.hpp"
#include "sparse/sparse_vector.hpp"

namespace isasgd::io {

namespace {

using sparse::index_t;
using sparse::value_t;
using Line = std::string_view;

/// parse_line's result for blank and comment lines.
constexpr std::size_t kNotData = static_cast<std::size_t>(-1);

/// All parse failures funnel through here so every message carries the
/// 1-based line number and a snippet of the offending line — "libsvm parse
/// error" with no location is useless against a multi-gigabyte file.
[[noreturn]] void fail(std::size_t line_no, const std::string& what,
                       Line line) {
  constexpr std::size_t kSnippet = 60;
  std::string context(line.substr(0, kSnippet));
  if (line.size() > kSnippet) context += "...";
  throw std::runtime_error("libsvm parse error at line " +
                           std::to_string(line_no) + ": " + what + " near '" +
                           context + "'");
}

/// Drops the '\r' of a CRLF line ending (one only, as every reader always has).
Line strip_cr(Line line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

/// The characters strtod skips before a number (C-locale isspace).
bool is_c_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Upper bound on the features of a data line: every parsed feature consumes
/// one ':' before the line's first '#', which no token can step past. Sizes
/// the output parse_line writes into.
std::size_t count_features(Line line) {
  std::size_t colons = 0;
  for (char c : line) {
    if (c == '#') break;
    colons += c == ':';
  }
  return colons;
}

/// Parses a double at [p, end) with std::strtod's exact value and extent;
/// returns the end of the number, or nullptr if strtod accepts nothing.
/// std::from_chars is the fast path. It is taken only where it provably
/// agrees with strtod: a lone leading '+' is skipped (labels are written
/// "+1"), and the number must end the token (end of line, blank or '#'), so a
/// hex float, leading whitespace or a trailing letter goes to strtod. NaNs
/// go to strtod as well, which keeps their payload and sign bits.
const char* parse_double(const char* p, const char* end, double& out) {
  const char* q = p;
  if (q != end && *q == '+') ++q;
  if (q != end && *q != '+' && !(q != p && *q == '-')) {
    const auto [stop, ec] = std::from_chars(q, end, out);
    if (ec == std::errc{} && !std::isnan(out) &&
        (stop == end || *stop == ' ' || *stop == '\t' || *stop == '#')) {
      return stop;
    }
  }
  // strtod never reads past the first blank after the number starts, so a
  // NUL-terminated copy of the leading blanks plus one token is enough.
  const char* token_end = p;
  while (token_end != end && is_c_space(*token_end)) ++token_end;
  while (token_end != end && !is_c_space(*token_end)) ++token_end;
  const auto len = static_cast<std::size_t>(token_end - p);
  char small[64];
  std::string large;
  char* buf = small;
  if (len < sizeof small) {
    std::memcpy(small, p, len);
    small[len] = '\0';
  } else {
    large.assign(p, len);
    buf = large.data();
  }
  char* stop = nullptr;
  out = std::strtod(buf, &stop);
  return stop == buf ? nullptr : p + (stop - buf);
}

/// Parses one LibSVM line into its label and up to `cap` (idx, val) pairs;
/// returns the pair count, or kNotData for blank and comment lines. Every
/// reader (file, stream, index) goes through here, so all three validate
/// identically; the caller owns the output, so nothing is allocated per row.
std::size_t parse_line(Line line, std::size_t line_no, double& label,
                       index_t* idx, value_t* val, std::size_t cap) {
  std::size_t pos = line.find_first_not_of(" \t");
  if (pos == Line::npos || line[pos] == '#') return kNotData;

  const char* const begin = line.data();
  const char* const end = begin + line.size();
  const char* after = parse_double(begin + pos, end, label);
  if (after == nullptr) fail(line_no, "expected label", line);
  pos = static_cast<std::size_t>(after - begin);
  std::size_t n = 0;
  while (pos < line.size()) {
    pos = line.find_first_not_of(" \t", pos);
    if (pos == Line::npos || line[pos] == '#') break;
    // <index>:<value>
    std::size_t feat = 0;
    const auto [p, ec] = std::from_chars(begin + pos, end, feat);
    if (ec == std::errc::result_out_of_range) {
      fail(line_no, "feature index out of range", line);
    }
    if (ec != std::errc{} || p == begin + pos) {
      fail(line_no, "expected feature index", line);
    }
    pos = static_cast<std::size_t>(p - begin);
    if (pos >= line.size() || line[pos] != ':') fail(line_no, "expected ':'", line);
    ++pos;
    double v = 0;
    after = parse_double(begin + pos, end, v);
    if (after == nullptr) fail(line_no, "expected feature value", line);
    pos = static_cast<std::size_t>(after - begin);
    if (feat == 0) fail(line_no, "feature indices are 1-based", line);
    if (feat - 1 > std::numeric_limits<index_t>::max()) {
      // Without this check the narrowing cast below would silently wrap a
      // 64-bit index into a wrong 32-bit column.
      fail(line_no, "feature index out of range", line);
    }
    // Only reachable when a file grows between the counting and the parsing
    // pass of read_libsvm_file: cap is count_features() everywhere else.
    if (n == cap) fail(line_no, "input changed while being read", line);
    idx[n] = static_cast<index_t>(feat - 1);
    val[n] = v;
    ++n;
  }
  return n;
}

/// Makes a parsed row strictly increasing in place and returns its length.
/// Rows that already are take no sort; the rest go through
/// SparseVector::from_unsorted, which sums duplicates additively.
std::size_t normalize_row(index_t* idx, value_t* val, std::size_t n) {
  std::size_t k = 1;
  while (k < n && idx[k] > idx[k - 1]) ++k;
  if (k >= n) return n;
  const sparse::SparseVector row = sparse::SparseVector::from_unsorted(
      std::vector<index_t>(idx, idx + n), std::vector<value_t>(val, val + n));
  std::copy(row.indices().begin(), row.indices().end(), idx);
  std::copy(row.values().begin(), row.values().end(), val);
  return row.nnz();
}

/// Binary label normalisation: when the labels hold exactly two distinct
/// values that are not already {-1, +1} (e.g. {0,1} or {1,2}), map the
/// smaller onto -1 and the larger onto +1.
void normalize_binary_labels(std::vector<value_t>& labels) {
  std::set<double> distinct;
  for (double y : labels) {
    distinct.insert(y);
    if (distinct.size() > 2) return;
  }
  if (distinct.size() != 2) return;
  const double lo = *distinct.begin();
  const double hi = *std::next(distinct.begin());
  if (lo == -1.0 && hi == 1.0) return;
  for (double& y : labels) y = y == lo ? -1.0 : 1.0;
}

sparse::CsrMatrix finish(std::size_t dim, std::vector<std::size_t> row_ptr,
                         std::vector<index_t> col_idx,
                         std::vector<value_t> values,
                         std::vector<value_t> labels,
                         const LibsvmReadOptions& options) {
  if (options.normalize_binary_labels) normalize_binary_labels(labels);
  return sparse::CsrMatrix(dim, std::move(row_ptr), std::move(col_idx),
                           std::move(values), std::move(labels));
}

// ---- Parallel file reader ------------------------------------------------

/// Owns a file descriptor.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

[[noreturn]] void fail_changed(const std::string& path) {
  throw std::runtime_error("read_libsvm_file: '" + path +
                           "' changed while being read");
}

/// Reads up to `n` bytes at `offset`; fewer only at end of file.
std::size_t read_at(int fd, char* buf, std::size_t n, std::uint64_t offset,
                    const std::string& path) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got,
                              static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) {
      throw std::runtime_error("read_libsvm_file: cannot read '" + path +
                               "': " + std::strerror(errno));
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

/// Offset of the first line that starts at or after `cut` (a line starts at
/// 0 and after every '\n'); `size` if none does.
std::uint64_t line_start_at_or_after(int fd, std::uint64_t cut,
                                     std::uint64_t size,
                                     const std::string& path) {
  if (cut == 0 || cut >= size) return std::min(cut, size);
  char buf[4096];
  for (std::uint64_t at = cut - 1; at < size;) {
    const std::size_t got = read_at(
        fd, buf, static_cast<std::size_t>(std::min<std::uint64_t>(sizeof buf, size - at)),
        at, path);
    if (got == 0) fail_changed(path);
    if (const void* nl = std::memchr(buf, '\n', got)) {
      return at + static_cast<std::uint64_t>(static_cast<const char*>(nl) - buf) + 1;
    }
    at += got;
  }
  return size;
}

/// A read buffer mapped straight from the kernel. A malloc'ed 1 MiB block
/// freed on a reader thread can stay resident in that thread's arena after
/// the parse (glibc raises its mmap threshold once the first block is
/// freed), adding megabytes to the process's peak RSS; munmap returns it.
class MappedBlock {
 public:
  explicit MappedBlock(std::size_t bytes)
      : bytes_(bytes),
        data_(::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (data_ == MAP_FAILED) throw std::bad_alloc();
  }
  MappedBlock(const MappedBlock&) = delete;
  MappedBlock& operator=(const MappedBlock&) = delete;
  ~MappedBlock() { ::munmap(data_, bytes_); }
  [[nodiscard]] char* data() const noexcept { return static_cast<char*>(data_); }

 private:
  std::size_t bytes_;
  void* data_;
};

/// The lines of the byte range [begin, end) of a file, read with pread in
/// ~1 MiB blocks. `end` is a line start or the end of the file, so the range
/// holds exactly the lines that start in it. A line that straddles two
/// blocks is assembled in a carry buffer; every other line is a view into
/// the block.
class RangeLines {
 public:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

  RangeLines(int fd, std::uint64_t begin, std::uint64_t end,
             const std::string& path)
      : fd_(fd), pos_(begin), end_(end), path_(path), block_(kBlockBytes) {}

  /// Next line without its '\n'; valid until the following call.
  bool next(Line& line) {
    if (carried_) {
      carry_.clear();
      carried_ = false;
    }
    for (;;) {
      if (at_ < len_) {
        const char* b = block_.data() + at_;
        const std::size_t n = len_ - at_;
        if (const void* nl = std::memchr(b, '\n', n)) {
          const auto len = static_cast<std::size_t>(static_cast<const char*>(nl) - b);
          at_ += len + 1;
          if (carry_.empty()) {
            line = Line(b, len);
            return true;
          }
          carry_.append(b, len);
          line = carry_;
          carried_ = true;
          return true;
        }
        carry_.append(b, n);
        at_ = len_;
      }
      if (pos_ >= end_) {
        if (carry_.empty()) return false;
        line = carry_;
        carried_ = true;
        return true;
      }
      const auto want =
          static_cast<std::size_t>(std::min<std::uint64_t>(kBlockBytes, end_ - pos_));
      len_ = read_at(fd_, block_.data(), want, pos_, path_);
      if (len_ < want) fail_changed(path_);
      pos_ += len_;
      at_ = 0;
    }
  }

 private:
  int fd_;
  std::uint64_t pos_, end_;
  const std::string& path_;
  MappedBlock block_;
  std::size_t at_ = 0, len_ = 0;
  std::string carry_;
  bool carried_ = false;
};

/// Runs body(0..parts-1), parts - 1 of them on threads started here and one
/// on the caller, and joins them all before returning (std::jthread joins on
/// destruction, on the exception path of a failed thread start too). No
/// pool outlives the call: a process group forks right after the parse.
template <class Body>
void run_parts(std::size_t parts, const Body& body) {
  std::vector<std::jthread> workers;
  workers.reserve(parts - 1);
  for (std::size_t k = 1; k < parts; ++k) {
    workers.emplace_back([&body, k] { body(k); });
  }
  body(0);
}

/// Rethrows the error of the earliest range that failed, if any: ranges
/// are in file order and each stops at its first failing line, so that is
/// the first failing line of the file.
void rethrow_first(const std::vector<std::exception_ptr>& errors) {
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

struct RangeCount {
  std::uint64_t begin = 0, end = 0;
  std::size_t lines = 0, rows = 0, features = 0;
};

sparse::CsrMatrix read_stream_file(const std::string& path,
                                   const LibsvmReadOptions& options) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("read_libsvm_file: cannot open '" + path + "'");
  }
  return read_libsvm(in, options);
}

/// Two-pass parallel parse of a regular file into pre-sized CSR arrays.
/// `parts` = 0 picks the number of byte ranges from the file size.
sparse::CsrMatrix read_file(const std::string& path,
                            const LibsvmReadOptions& options,
                            std::size_t parts) {
  // A row cut must not validate the rows after it; the serial reader stops
  // at the cut by construction.
  if (options.max_rows != 0) return read_stream_file(path, options);
  const Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) {
    throw std::runtime_error("read_libsvm_file: cannot open '" + path + "'");
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0 || !S_ISREG(st.st_mode)) {
    return read_stream_file(path, options);  // pipes and devices: no pread
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (parts == 0) {
    constexpr std::uint64_t kMinRangeBytes = std::uint64_t{4} << 20;
    const std::uint64_t hw = std::max(1u, std::thread::hardware_concurrency());
    parts = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, std::min(hw, size / kMinRangeBytes)));
  }

  // Split: a line belongs to the range in which it starts.
  std::vector<RangeCount> ranges(parts);
  for (std::size_t k = 0; k < parts; ++k) {
    ranges[k].begin = k == 0 ? 0 : ranges[k - 1].end;
    ranges[k].end = k + 1 == parts
                        ? size
                        : line_start_at_or_after(fd.get(), size / parts * (k + 1),
                                                 size, path);
  }

  // Pass 1: count lines, data rows and feature upper bounds per range.
  std::vector<std::exception_ptr> errors(parts);
  run_parts(parts, [&](std::size_t k) {
    try {
      RangeCount& r = ranges[k];
      RangeLines lines(fd.get(), r.begin, r.end, path);
      Line line;
      while (lines.next(line)) {
        ++r.lines;
        line = strip_cr(line);
        const std::size_t pos = line.find_first_not_of(" \t");
        if (pos == Line::npos || line[pos] == '#') continue;
        ++r.rows;
        r.features += count_features(line);
      }
    } catch (...) {
      errors[k] = std::current_exception();
    }
  });
  rethrow_first(errors);

  // Prefix sums: each range's first line number, row and nnz offset.
  std::vector<std::size_t> line_base(parts), row_base(parts + 1),
      nnz_base(parts + 1);
  for (std::size_t k = 0; k < parts; ++k) {
    line_base[k] = k == 0 ? options.line_number_offset
                          : line_base[k - 1] + ranges[k - 1].lines;
    row_base[k + 1] = row_base[k] + ranges[k].rows;
    nnz_base[k + 1] = nnz_base[k] + ranges[k].features;
  }

  // Allocate once, at the final sizes (nnz shrinks only if rows merge
  // duplicate indices).
  const std::size_t rows = row_base[parts];
  std::vector<std::size_t> row_ptr(rows + 1);
  std::vector<index_t> col_idx(nnz_base[parts]);
  std::vector<value_t> values(nnz_base[parts]);
  std::vector<value_t> labels(rows);

  // Pass 2: each range parses in place into its own slice.
  std::vector<std::size_t> nnz_end(parts);
  std::vector<std::size_t> dims(parts, options.dim_hint);
  run_parts(parts, [&](std::size_t k) {
    try {
      RangeLines lines(fd.get(), ranges[k].begin, ranges[k].end, path);
      std::size_t line_no = line_base[k];
      std::size_t row = row_base[k];
      std::size_t cursor = nnz_base[k];
      Line line;
      while (lines.next(line)) {
        ++line_no;
        line = strip_cr(line);
        double label = 0;
        const std::size_t n =
            parse_line(line, line_no, label, col_idx.data() + cursor,
                       values.data() + cursor, nnz_base[k + 1] - cursor);
        if (n == kNotData) continue;
        if (row == row_base[k + 1]) {
          fail(line_no, "input changed while being read", line);
        }
        const std::size_t m =
            normalize_row(col_idx.data() + cursor, values.data() + cursor, n);
        if (m != 0) {
          dims[k] = std::max(dims[k],
                             static_cast<std::size_t>(col_idx[cursor + m - 1]) + 1);
        }
        cursor += m;
        labels[row] = label;
        row_ptr[++row] = cursor;
      }
      if (row != row_base[k + 1]) fail_changed(path);
      nnz_end[k] = cursor;
    } catch (...) {
      errors[k] = std::current_exception();
    }
  });
  rethrow_first(errors);

  // Compaction, only if some row merged duplicates: slide each range's
  // slice down over the gaps left before it.
  std::size_t shift = 0;
  for (std::size_t k = 0; k < parts; ++k) {
    if (shift != 0) {
      const std::size_t from = nnz_base[k], count = nnz_end[k] - from;
      std::memmove(col_idx.data() + from - shift, col_idx.data() + from,
                   count * sizeof(index_t));
      std::memmove(values.data() + from - shift, values.data() + from,
                   count * sizeof(value_t));
      for (std::size_t r = row_base[k] + 1; r <= row_base[k + 1]; ++r) {
        row_ptr[r] -= shift;
      }
    }
    shift += nnz_base[k + 1] - nnz_end[k];
  }
  col_idx.resize(col_idx.size() - shift);
  values.resize(values.size() - shift);

  return finish(*std::max_element(dims.begin(), dims.end()), std::move(row_ptr),
                std::move(col_idx), std::move(values), std::move(labels),
                options);
}

}  // namespace

sparse::CsrMatrix read_libsvm(std::istream& in,
                              const LibsvmReadOptions& options) {
  std::vector<std::size_t> row_ptr{0};
  std::vector<index_t> col_idx;
  std::vector<value_t> values;
  std::vector<value_t> labels;
  std::size_t dim = options.dim_hint;
  std::string line;
  std::size_t line_no = options.line_number_offset;

  while (std::getline(in, line)) {
    ++line_no;
    const Line text = strip_cr(line);
    const std::size_t at = col_idx.size();
    const std::size_t cap = count_features(text);
    col_idx.resize(at + cap);
    values.resize(at + cap);
    double label = 0;
    const std::size_t n = parse_line(text, line_no, label, col_idx.data() + at,
                                     values.data() + at, cap);
    const std::size_t m =
        n == kNotData ? 0
                      : normalize_row(col_idx.data() + at, values.data() + at, n);
    col_idx.resize(at + m);
    values.resize(at + m);
    if (n == kNotData) continue;
    if (m != 0) dim = std::max(dim, static_cast<std::size_t>(col_idx.back()) + 1);
    labels.push_back(label);
    row_ptr.push_back(col_idx.size());
    if (options.max_rows && labels.size() >= options.max_rows) break;
  }
  return finish(dim, std::move(row_ptr), std::move(col_idx), std::move(values),
                std::move(labels), options);
}

LibsvmIndex index_libsvm(std::istream& in, std::size_t rows_per_shard,
                         std::size_t dim_hint) {
  if (rows_per_shard == 0) {
    throw std::invalid_argument("index_libsvm: rows_per_shard must be > 0");
  }
  LibsvmIndex index;
  index.dim = dim_hint;
  std::string line;
  std::size_t line_no = 0;
  std::vector<index_t> idx;
  std::vector<value_t> val;
  std::set<double> distinct;

  const std::streamoff start = in.tellg();
  std::uint64_t line_offset = start < 0 ? 0 : static_cast<std::uint64_t>(start);
  for (;;) {
    if (!std::getline(in, line)) break;
    ++line_no;
    // getline consumed the row plus its terminator; the next line starts at
    // the current stream position (tellg is unusable mid-loop once EOF has
    // been hit, so track offsets by line length instead).
    const std::uint64_t next_offset =
        line_offset + static_cast<std::uint64_t>(line.size()) +
        (in.eof() ? 0 : 1);
    const Line text = strip_cr(line);
    idx.resize(count_features(text));
    val.resize(idx.size());
    double label = 0;
    const std::size_t n =
        parse_line(text, line_no, label, idx.data(), val.data(), idx.size());
    if (n != kNotData) {
      if (index.rows % rows_per_shard == 0) {
        index.shard_offset.push_back(line_offset);
        index.shard_first_line.push_back(line_no);
        index.shard_rows.push_back(0);
      }
      ++index.shard_rows.back();
      ++index.rows;
      // Count *merged* nonzeros: read_libsvm folds duplicate indices into
      // one entry, and the index must report the shape the reader produces.
      const std::size_t m = normalize_row(idx.data(), val.data(), n);
      index.nnz += m;
      if (m != 0) {
        index.dim = std::max(index.dim, static_cast<std::size_t>(idx[m - 1]) + 1);
      }
      if (distinct.size() <= 2) distinct.insert(label);
    }
    line_offset = next_offset;
  }
  index.distinct_labels.assign(distinct.begin(), distinct.end());
  return index;
}

sparse::CsrMatrix read_libsvm_file(const std::string& path,
                                   const LibsvmReadOptions& options) {
  return read_file(path, options, 0);
}

namespace detail {

sparse::CsrMatrix read_libsvm_file_parts(const std::string& path,
                                         const LibsvmReadOptions& options,
                                         std::size_t parts) {
  if (parts == 0) {
    throw std::invalid_argument("read_libsvm_file_parts: parts must be > 0");
  }
  return read_file(path, options, parts);
}

}  // namespace detail

void write_libsvm(std::ostream& out, const sparse::CsrMatrix& data) {
  char buf[64];
  for (std::size_t i = 0; i < data.rows(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", data.label(i));
    out << buf;
    const auto row = data.row(i);
    for (std::size_t k = 0; k < row.nnz(); ++k) {
      std::snprintf(buf, sizeof buf, "%.17g", row.value(k));
      out << ' ' << (row.index(k) + 1) << ':' << buf;
    }
    out << '\n';
  }
}

void write_libsvm_file(const std::string& path, const sparse::CsrMatrix& data) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_libsvm_file: cannot open '" + path + "'");
  }
  write_libsvm(out, data);
}

}  // namespace isasgd::io
