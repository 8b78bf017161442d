#include "io/libsvm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "libsvm_parity.hpp"

namespace isasgd::io {
namespace {

sparse::CsrMatrix parse(const std::string& text,
                        const LibsvmReadOptions& opts = {}) {
  std::istringstream in(text);
  return read_libsvm(in, opts);
}

TEST(Libsvm, ParsesBasicFile) {
  const auto data = parse("+1 1:0.5 3:2.0\n-1 2:1.0\n");
  EXPECT_EQ(data.rows(), 2u);
  EXPECT_EQ(data.dim(), 3u);
  EXPECT_DOUBLE_EQ(data.label(0), 1.0);
  EXPECT_DOUBLE_EQ(data.label(1), -1.0);
  EXPECT_EQ(data.row(0).index(0), 0u);  // 1-based → 0-based
  EXPECT_DOUBLE_EQ(data.row(0).value(1), 2.0);
}

TEST(Libsvm, SkipsBlankLinesAndComments) {
  const auto data = parse("\n# header comment\n+1 1:1\n\n-1 2:1  # trailing\n");
  EXPECT_EQ(data.rows(), 2u);
}

TEST(Libsvm, HandlesCrlf) {
  const auto data = parse("+1 1:1\r\n-1 2:1\r\n");
  EXPECT_EQ(data.rows(), 2u);
}

TEST(Libsvm, ToleratesUnsortedIndices) {
  const auto data = parse("+1 5:5 2:2\n-1 1:1\n");
  EXPECT_EQ(data.row(0).index(0), 1u);
  EXPECT_DOUBLE_EQ(data.row(0).value(0), 2.0);
}

TEST(Libsvm, RowWithoutFeaturesIsAllowed) {
  const auto data = parse("+1\n-1 1:1\n");
  EXPECT_EQ(data.rows(), 2u);
  EXPECT_EQ(data.row(0).nnz(), 0u);
}

TEST(Libsvm, ZeroIndexFailsWithLineNumber) {
  try {
    parse("+1 1:1\n-1 0:2\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Libsvm, MissingColonFails) {
  EXPECT_THROW(parse("+1 3 4\n"), std::runtime_error);
}

TEST(Libsvm, GarbageValueFails) {
  EXPECT_THROW(parse("+1 1:abc\n"), std::runtime_error);
}

TEST(Libsvm, MapsZeroOneLabelsToPlusMinus) {
  const auto data = parse("0 1:1\n1 2:1\n0 3:1\n");
  EXPECT_DOUBLE_EQ(data.label(0), -1.0);
  EXPECT_DOUBLE_EQ(data.label(1), 1.0);
}

TEST(Libsvm, MapsOneTwoLabelsToPlusMinus) {
  const auto data = parse("1 1:1\n2 2:1\n");
  EXPECT_DOUBLE_EQ(data.label(0), -1.0);
  EXPECT_DOUBLE_EQ(data.label(1), 1.0);
}

TEST(Libsvm, LeavesPlusMinusLabelsAlone) {
  const auto data = parse("-1 1:1\n+1 2:1\n");
  EXPECT_DOUBLE_EQ(data.label(0), -1.0);
  EXPECT_DOUBLE_EQ(data.label(1), 1.0);
}

TEST(Libsvm, NormalizationCanBeDisabled) {
  LibsvmReadOptions opts;
  opts.normalize_binary_labels = false;
  const auto data = parse("0 1:1\n1 2:1\n", opts);
  EXPECT_DOUBLE_EQ(data.label(0), 0.0);
}

TEST(Libsvm, MulticlassLabelsPassThrough) {
  const auto data = parse("1 1:1\n2 2:1\n3 3:1\n");
  EXPECT_DOUBLE_EQ(data.label(2), 3.0);
}

TEST(Libsvm, DimHintExpandsDimension) {
  LibsvmReadOptions opts;
  opts.dim_hint = 100;
  EXPECT_EQ(parse("+1 1:1\n", opts).dim(), 100u);
}

TEST(Libsvm, MaxRowsTruncates) {
  LibsvmReadOptions opts;
  opts.max_rows = 2;
  EXPECT_EQ(parse("+1 1:1\n-1 2:1\n+1 3:1\n", opts).rows(), 2u);
}

TEST(Libsvm, MissingFileThrows) {
  EXPECT_THROW(read_libsvm_file("/no/such/file.svm"), std::runtime_error);
}

TEST(Libsvm, WriteReadRoundTrips) {
  const auto original = parse("+1 1:0.25 7:-3.5\n-1 2:1e-7\n+1 5:42\n");
  std::ostringstream out;
  write_libsvm(out, original);
  const auto reparsed = parse(out.str());
  ASSERT_EQ(reparsed.rows(), original.rows());
  EXPECT_EQ(reparsed.dim(), original.dim());
  for (std::size_t i = 0; i < original.rows(); ++i) {
    EXPECT_DOUBLE_EQ(reparsed.label(i), original.label(i));
    const auto a = original.row(i), b = reparsed.row(i);
    ASSERT_EQ(a.nnz(), b.nnz());
    for (std::size_t k = 0; k < a.nnz(); ++k) {
      EXPECT_EQ(a.index(k), b.index(k));
      EXPECT_DOUBLE_EQ(a.value(k), b.value(k));
    }
  }
}

TEST(Libsvm, ScientificNotationValues) {
  const auto data = parse("+1 1:1.5e-3 2:2E+2\n");
  EXPECT_DOUBLE_EQ(data.row(0).value(0), 1.5e-3);
  EXPECT_DOUBLE_EQ(data.row(0).value(1), 200.0);
}


// ---- Token fidelity --------------------------------------------------------

TEST(LibsvmTokens, ValuesAreBitEqualToStrtod) {
  // Every spelling strtod accepts keeps strtod's exact bits, as a label and
  // as a feature value, through the stream and the file reader: the signed
  // zero, the subnormal, the overflow to inf, NaNs and the hex float too.
  const std::vector<std::string> tokens = {
      "+1",  "-0",   ".5",   "5.",       "1E5",      "1e-320",
      "1e400", "inf", "nan", "0x1p3",    "0.12345678901234567",
      "-nan", "-inf", "INF", "Infinity", "nan(123)", "+.5e-3"};
  const parity::TempFile file("libsvm_tokens");
  LibsvmReadOptions opts;
  opts.normalize_binary_labels = false;
  for (const std::string& tok : tokens) {
    SCOPED_TRACE(tok);
    const std::uint64_t want =
        parity::bits_of(std::strtod(tok.c_str(), nullptr));
    const std::string text = tok + " 3:" + tok + "\n";
    for (const auto& data :
         {parse(text, opts), read_libsvm_file(file.write(text), opts)}) {
      ASSERT_EQ(data.rows(), 1u);
      ASSERT_EQ(data.row(0).nnz(), 1u);
      EXPECT_EQ(parity::bits_of(data.label(0)), want);
      EXPECT_EQ(parity::bits_of(data.row(0).value(0)), want);
    }
  }
}

TEST(LibsvmTokens, GarbageTokensKeepTheirMessages) {
  const parity::TempFile file("libsvm_garbage");
  for (const std::string tok : {"abc", "+-1", "++1", "-", "+", ".", "x1"}) {
    SCOPED_TRACE(tok);
    const std::string bad_label = tok + " 1:1\n";
    const std::string bad_value = "+1 1:" + tok + "\n";
    const std::pair<std::string, std::string> cases[] = {
        {bad_label, "libsvm parse error at line 1: expected label near '" +
                        tok + " 1:1'"},
        {bad_value, "libsvm parse error at line 1: expected feature value "
                    "near '+1 1:" + tok + "'"}};
    for (const auto& [text, message] : cases) {
      EXPECT_EQ(parity::stream_outcome(text).error, message);
      EXPECT_EQ(parity::file_outcome(file.write(text), {}, 1).error, message);
    }
  }
}

// ---- File reader vs stream reader across range cuts -------------------------

/// A file exercising every irregularity the readers tolerate: CRLF endings,
/// comments, blank and whitespace-only lines, label-only rows, unsorted rows,
/// rows with three or more duplicate indices, and no trailing newline.
/// `lo`/`hi` are the label spellings; `bad_at` lists row ordinals replaced by
/// a malformed line.
std::string crafted_text(std::size_t rows, const std::string& lo,
                         const std::string& hi,
                         const std::vector<std::size_t>& bad_at = {}) {
  std::ostringstream out;
  out << "# crafted header: 1:2 is not a feature\n";
  for (std::size_t i = 0; i < rows; ++i) {
    if (std::find(bad_at.begin(), bad_at.end(), i) != bad_at.end()) {
      out << hi << " 4:1 x:2\n";
      continue;
    }
    out << (i % 3 == 0 ? hi : lo);
    switch (i % 7) {
      case 0: out << " 1:0.5 4:1.25 9:-2\r\n"; break;
      case 1: out << " 9:3 2:0.125 5:8e-3\n"; break;           // unsorted
      case 2: out << " 6:1 3:2 6:0.25 6:-0.5 3:1\n"; break;    // duplicates
      case 3: out << "   # label-only row follows\n" << lo << "\n"; break;
      case 4: out << " 2:1 7:0.1 # trailing 8:9 comment\n\n"; break;
      case 5: out << "\t 11:+1.5 12:.25\t \r\n \t \n"; break;
      default: out << ' ' << (i % 50 + 1) << ":0.3333333333333333\n"; break;
    }
  }
  out << hi << " 13:1";  // no trailing newline
  return out.str();
}

void expect_file_matches_stream(const std::string& text,
                                const LibsvmReadOptions& opts,
                                bool expect_error) {
  const parity::TempFile file("libsvm_ranges");
  const std::string& path = file.write(text);
  const parity::Outcome want = parity::stream_outcome(text, opts);
  EXPECT_EQ(!want.error.empty(), expect_error) << want.error;
  for (std::size_t parts = 1; parts <= 17; ++parts) {
    SCOPED_TRACE("parts=" + std::to_string(parts));
    parity::expect_same(want, parity::file_outcome(path, opts, parts));
  }
}

TEST(LibsvmRanges, FileMatchesStreamAcrossCuts) {
  for (const auto& [lo, hi] : std::vector<std::pair<std::string, std::string>>{
           {"-1", "+1"}, {"0", "1"}, {"1", "2"}}) {
    SCOPED_TRACE(lo + "/" + hi);
    expect_file_matches_stream(crafted_text(300, lo, hi), {}, false);
  }
  LibsvmReadOptions opts;
  opts.dim_hint = 40;
  opts.normalize_binary_labels = false;
  expect_file_matches_stream(crafted_text(300, "0", "1"), opts, false);
}

TEST(LibsvmRanges, LineStraddlingAReadBlockMatches) {
  // One long line crosses the reader's 1 MiB block boundary.
  std::string text = crafted_text(20000, "-1", "+1");
  const std::size_t block = std::size_t{1} << 20;
  ASSERT_LT(text.size(), block);
  text += "\n+1";
  for (std::size_t k = 1; text.size() < block + 40000; ++k) {
    text += ' ' + std::to_string(k) + ":0.7071067811865476";
  }
  text += "\n" + crafted_text(50, "-1", "+1");
  expect_file_matches_stream(text, {}, false);
}

TEST(LibsvmRanges, EarlierMalformedLineWins) {
  expect_file_matches_stream(crafted_text(300, "-1", "+1", {80, 230}), {},
                             true);
  LibsvmReadOptions opts;
  opts.line_number_offset = 1000;
  expect_file_matches_stream(crafted_text(300, "-1", "+1", {80, 230}), opts,
                             true);
  expect_file_matches_stream(crafted_text(300, "-1", "+1"), opts, false);
}

TEST(LibsvmRanges, MaxRowsCutStopsBeforeLaterErrors) {
  LibsvmReadOptions opts;
  opts.max_rows = 137;
  expect_file_matches_stream(crafted_text(300, "0", "1"), opts, false);
  // The malformed row lies after the cut: it is never validated.
  expect_file_matches_stream(crafted_text(300, "0", "1", {250}), opts, false);
}


TEST(LibsvmRanges, NoReaderThreadOutlivesTheCall) {
  const auto task_count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  if (!std::filesystem::exists("/proc/self/task")) GTEST_SKIP();
  const parity::TempFile file("libsvm_threads");
  const std::string text = crafted_text(300, "-1", "+1");
  const std::string& path = file.write(text);
  const std::size_t before = task_count();
  EXPECT_EQ(detail::read_libsvm_file_parts(path, {}, 8).rows(),
            parse(text).rows());
  EXPECT_EQ(task_count(), before);
}

}  // namespace
}  // namespace isasgd::io
