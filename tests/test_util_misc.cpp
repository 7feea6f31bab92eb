// Unit tests for util/table (experiment output), util/flags (CLI parsing)
// and util/parallel (determinism and exception propagation).

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <stdexcept>
#include <vector>

#include "util/crc32c.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace croute {
namespace {

// ---------------------------------------------------------------- table ---

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t({"name", "value"});
  t.row().add("alpha").add(std::uint64_t{42});
  t.row().add("beta").add(3.14159, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.14"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, ColumnsAligned) {
  TextTable t({"a", "b"});
  t.row().add("short").add("x");
  t.row().add("much-longer-cell").add("y");
  const std::string s = t.to_string();
  // Every line must have the same length (aligned columns).
  std::size_t line_len = 0;
  std::size_t start = 0;
  while (start < s.size()) {
    const std::size_t end = s.find('\n', start);
    const std::size_t len = end - start;
    if (line_len == 0) line_len = len;
    EXPECT_EQ(len, line_len);
    start = end + 1;
  }
}

TEST(TextTable, EmptyHeaderRejected) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, AddWithoutRowRejected) {
  TextTable t({"a"});
  EXPECT_THROW(t.add("x"), std::invalid_argument);
}

TEST(TextTable, TooManyCellsRejected) {
  TextTable t({"a"});
  t.row().add("x");
  EXPECT_THROW(t.add("y"), std::invalid_argument);
}

// ---------------------------------------------------------------- flags ---

TEST(Flags, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--n=100", "--rate=0.5", "--name=hello"};
  const Flags f(4, argv);
  EXPECT_EQ(f.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 0.5);
  EXPECT_EQ(f.get_string("name", ""), "hello");
}

TEST(Flags, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--n", "7", "--label", "x"};
  const Flags f(5, argv);
  EXPECT_EQ(f.get_int("n", 0), 7);
  EXPECT_EQ(f.get_string("label", ""), "x");
}

TEST(Flags, BareBooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  const Flags f(2, argv);
  EXPECT_TRUE(f.has("verbose"));
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("quiet", false));
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Flags f(1, argv);
  EXPECT_EQ(f.get_int("n", 123), 123);
  EXPECT_EQ(f.get_string("s", "dflt"), "dflt");
  EXPECT_FALSE(f.has("n"));
}

TEST(Flags, PositionalCollected) {
  const char* argv[] = {"prog", "input.txt", "--n=1", "more"};
  const Flags f(4, argv);
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "more");
  EXPECT_EQ(f.program(), "prog");
}

TEST(Flags, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  const Flags f(2, argv);
  EXPECT_THROW(f.get_int("n", 0), std::invalid_argument);
}

// ------------------------------------------------------------- parallel ---

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const std::uint64_t count = 10000;
  std::vector<std::atomic<int>> hits(count);
  parallel_for(count, [&](std::uint64_t i) { ++hits[i]; });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  bool called = false;
  parallel_for(0, [&](std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, DisjointWritesAreDeterministic) {
  std::vector<std::uint64_t> out(5000);
  parallel_for(out.size(), [&](std::uint64_t i) { out[i] = i * i; });
  for (std::uint64_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::uint64_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, GrainRespectsAllIndices) {
  const std::uint64_t count = 1003;  // not divisible by the grain
  std::atomic<std::uint64_t> sum{0};
  parallel_for(count, [&](std::uint64_t i) { sum += i; }, /*grain=*/64);
  EXPECT_EQ(sum.load(), count * (count - 1) / 2);
}

TEST(WorkerCount, AtLeastOne) { EXPECT_GE(worker_count(), 1u); }

TEST(Crc32c, KnownValueAndCombineMatchesOnePass) {
  // The iSCSI check value pins the convention (inverted in and out).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  std::string bytes(10007, '\0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  const std::uint32_t whole = crc32c(bytes.data(), bytes.size());
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{8}, std::size_t{4096},
                                bytes.size() - 3, bytes.size()}) {
    const std::uint32_t a = crc32c(bytes.data(), cut);
    const std::uint32_t b = crc32c(bytes.data() + cut, bytes.size() - cut);
    EXPECT_EQ(crc32c_combine(a, b, bytes.size() - cut), whole) << cut;
  }
}

}  // namespace
}  // namespace croute
