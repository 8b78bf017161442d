#include "util/logging.hpp"

#include <gtest/gtest.h>

namespace isasgd::util {
namespace {

TEST(FormatBytes, KeepsKiBPrecision) {
  // The materialize() warnings print shard budgets through this: a 16 KiB
  // budget once read "0 MiB" after a round-down to whole MiB.
  EXPECT_EQ(format_bytes(16 << 10), "16 KiB");
  EXPECT_EQ(format_bytes(1536 << 10), "1536 KiB");
  EXPECT_EQ(format_bytes(std::uint64_t{8} << 20), "8 MiB");
  EXPECT_EQ(format_bytes(1000), "1000 bytes");
  EXPECT_EQ(format_bytes((16 << 10) + 1), "16385 bytes");
  EXPECT_EQ(format_bytes(0), "0 bytes");
}

}  // namespace
}  // namespace isasgd::util
