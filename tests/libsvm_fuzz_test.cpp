// Property/fuzz coverage for the LibSVM parser: exact line numbers on every
// malformed input, tolerance for the benign irregularities real files
// contain, a libsvm→binary→libsvm round-trip identity, and a deterministic
// mutation fuzzer asserting the parser either succeeds or throws
// std::runtime_error — never crashes, never silently mangles — and that the
// parallel file reader agrees with the stream reader on every mutant.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "io/binary.hpp"
#include "io/libsvm.hpp"
#include "libsvm_parity.hpp"
#include "util/rng.hpp"

namespace isasgd::io {
namespace {

sparse::CsrMatrix parse(const std::string& text,
                        LibsvmReadOptions options = {}) {
  std::istringstream in(text);
  return read_libsvm(in, options);
}

/// Expects a parse failure whose message names 1-based line `line_no`.
void expect_error_at_line(const std::string& text, std::size_t line_no,
                          const std::string& detail = "") {
  try {
    (void)parse(text);
    FAIL() << "expected a parse error for: " << text;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line " + std::to_string(line_no)),
              std::string::npos)
        << "message '" << message << "' does not name line " << line_no;
    if (!detail.empty()) {
      EXPECT_NE(message.find(detail), std::string::npos)
          << "message '" << message << "' lacks '" << detail << "'";
    }
  }
}

TEST(LibsvmErrors, MalformedLabelNamesTheLine) {
  expect_error_at_line("abc 1:2\n", 1, "label");
  // Blank and comment lines still advance the reported line number.
  expect_error_at_line("1 1:2\n# comment\n\nnot-a-label 1:2\n", 4, "label");
}

TEST(LibsvmErrors, MalformedFeatureNamesTheLine) {
  expect_error_at_line("1 1:2\n-1 x:3\n", 2, "feature index");
  expect_error_at_line("1 1:2\n-1 3\n", 2, "':'");
  expect_error_at_line("-1 3:\n", 1, "feature value");
  expect_error_at_line("1 2:1 0:5\n", 1, "1-based");
}

TEST(LibsvmErrors, HugeFeatureIndexIsRejectedNotWrapped) {
  // 2^32 would silently wrap to column 0 through a uint32 narrowing cast;
  // both the just-too-big and the absurdly-big spellings must fail loudly.
  expect_error_at_line("1 4294967297:1\n", 1, "out of range");
  expect_error_at_line("1 1:2\n1 99999999999999999999:1\n", 2, "out of range");
}

TEST(LibsvmErrors, MessageCarriesTheOffendingLineSnippet) {
  try {
    (void)parse("+1 7:bad_value\n");
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("7:bad_value"), std::string::npos)
        << e.what();
  }
}

TEST(LibsvmErrors, LineNumberOffsetShiftsReportedLines) {
  LibsvmReadOptions options;
  options.line_number_offset = 100;
  std::istringstream in("1 1:x\n");
  try {
    (void)read_libsvm(in, options);
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 101"), std::string::npos)
        << e.what();
  }
}

TEST(LibsvmTolerance, BenignIrregularitiesParse) {
  // Trailing whitespace, \r\n, blank lines, comments, label-only rows,
  // out-of-order and duplicate indices (duplicates merge additively).
  const auto data = parse(
      "1 3:1.5 1:2.0   \t\r\n"
      "\n"
      "# full-line comment\n"
      "-1\n"
      "-1 2:1 2:0.5  # trailing comment\n");
  ASSERT_EQ(data.rows(), 3u);
  EXPECT_EQ(data.row(0).nnz(), 2u);
  EXPECT_EQ(data.row(0).index(0), 0u);  // 1-based 1 → column 0
  EXPECT_EQ(data.row(0).value(0), 2.0);
  EXPECT_EQ(data.row(0).value(1), 1.5);
  EXPECT_EQ(data.row(1).nnz(), 0u);  // empty row, label only
  ASSERT_EQ(data.row(2).nnz(), 1u);
  EXPECT_EQ(data.row(2).value(0), 1.5);  // 1 + 0.5 merged
}

TEST(LibsvmRoundTrip, LibsvmBinaryLibsvmIsIdentity) {
  util::Rng rng(404);
  std::ostringstream original;
  for (int i = 0; i < 50; ++i) {
    original << (util::uniform_double(rng) < 0.5 ? "-1" : "1");
    std::size_t col = 0;
    const std::size_t nnz = util::uniform_index(rng, 6);
    for (std::size_t k = 0; k < nnz; ++k) {
      col += 1 + util::uniform_index(rng, 40);
      // Awkward doubles on purpose: %.17g must survive both trips.
      original << ' ' << col << ':'
               << (util::uniform_double(rng) - 0.5) / 3.0;
    }
    original << '\n';
  }
  const auto first = parse(original.str());

  std::stringstream binary(std::ios::in | std::ios::out | std::ios::binary);
  write_dataset_binary(binary, first);
  const auto second = read_dataset_binary(binary);

  std::ostringstream text;
  write_libsvm(text, second);
  const auto third = parse(text.str());

  ASSERT_EQ(third.rows(), first.rows());
  ASSERT_EQ(third.nnz(), first.nnz());
  EXPECT_EQ(third.row_ptr(), first.row_ptr());
  EXPECT_EQ(third.col_idx(), first.col_idx());
  EXPECT_EQ(third.values(), first.values());  // exact, not approximate
  EXPECT_EQ(third.labels(), first.labels());

  // And the serialised text itself is a fixed point after one trip.
  std::ostringstream again;
  write_libsvm(again, third);
  EXPECT_EQ(again.str(), text.str());
}

TEST(LibsvmIndex, AgreesWithMaterialisingReader) {
  const std::string text =
      "# header comment\n"
      "1 1:1 5:2\n"
      "0 2:1\n"
      "\n"
      "1 7:3 8:1 9:4\n"
      "0 1:5\n";
  std::istringstream for_index(text);
  const LibsvmIndex index = index_libsvm(for_index, /*rows_per_shard=*/2);
  const auto data = parse(text);
  EXPECT_EQ(index.rows, data.rows());
  EXPECT_EQ(index.dim, data.dim());
  EXPECT_EQ(index.nnz, data.nnz());
  ASSERT_EQ(index.shard_rows.size(), 2u);
  EXPECT_EQ(index.shard_rows[0], 2u);
  EXPECT_EQ(index.shard_rows[1], 2u);
  EXPECT_EQ((std::vector<double>{0.0, 1.0}), index.distinct_labels);
  // Seeking to a recorded offset and reading shard_rows rows reproduces the
  // shard exactly.
  std::istringstream seeked(text);
  seeked.seekg(static_cast<std::streamoff>(index.shard_offset[1]));
  LibsvmReadOptions options;
  options.max_rows = index.shard_rows[1];
  options.dim_hint = index.dim;
  options.normalize_binary_labels = false;
  const auto shard = read_libsvm(seeked, options);
  ASSERT_EQ(shard.rows(), 2u);
  EXPECT_EQ(shard.row(0).value(0), 3.0);
  EXPECT_EQ(shard.label(1), 0.0);
}

TEST(LibsvmIndex, CountsMergedNotRawNonzeros) {
  // read_libsvm folds duplicate indices additively into one entry; the
  // index must report that merged shape, or a StreamingSource's nnz() would
  // disagree with the shards it serves.
  const std::string text = "1 2:1 2:0.5 3:1\n-1 4:2 4:1 4:1\n";
  std::istringstream for_index(text);
  const LibsvmIndex index = index_libsvm(for_index, 8);
  const auto data = parse(text);
  EXPECT_EQ(data.nnz(), 3u);
  EXPECT_EQ(index.nnz, data.nnz());
}

TEST(LibsvmFuzz, MutatedInputsNeverCrashAndErrorsNameALine) {
  const std::string seed_text =
      "1 1:0.5 3:1.25 9:-2\n"
      "-1 2:0.125 4:8\n"
      "1 5:3.5\n"
      "-1 1:-1 6:0.75 7:2.5 8:-0.25\n";
  util::Rng rng(20260728);
  const std::string alphabet = "0123456789.:+-e \t#\nx";
  std::size_t parsed = 0, rejected = 0;
  const parity::TempFile file("libsvm_fuzz");
  for (int trial = 0; trial < 600; ++trial) {
    std::string mutated = seed_text;
    const std::size_t edits = 1 + util::uniform_index(rng, 4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t at = util::uniform_index(rng, mutated.size());
      const char c = alphabet[util::uniform_index(rng, alphabet.size())];
      switch (util::uniform_index(rng, 3)) {
        case 0: mutated[at] = c; break;
        case 1: mutated.insert(at, 1, c); break;
        default: mutated.erase(at, 1); break;
      }
    }
    try {
      const auto data = parse(mutated);
      // Whatever survived must be structurally sound.
      EXPECT_LE(data.rows(), 8u);
      EXPECT_EQ(data.row_ptr().size(), data.rows() + 1);
      ++parsed;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << e.what();
      ++rejected;
    }
    // The file reader, cut into any number of byte ranges, agrees with the
    // stream reader: the same matrix bits or the same error message.
    const std::string& path = file.write(mutated);
    const parity::Outcome want = parity::stream_outcome(mutated);
    for (const std::size_t parts : {1, 2, 3, 7}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + ", parts " +
                   std::to_string(parts));
      parity::expect_same(want, parity::file_outcome(path, {}, parts));
    }
  }
  // The mutation distribution must actually exercise both outcomes.
  EXPECT_GT(parsed, 50u);
  EXPECT_GT(rejected, 50u);
}

}  // namespace
}  // namespace isasgd::io
