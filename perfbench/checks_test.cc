// Each perfbench check accepts a correct result and rejects the same result
// with one value or one row corrupted.

#include "checks.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

using FixedRows = std::vector<std::pair<uint64_t, uint64_t>>;
using VarRows = std::vector<std::pair<std::string, uint64_t>>;

const std::vector<uint64_t> kFixedModel = {10, 20, 30, 40, 50, 60};

FixedRows FixedRowsOf(std::vector<uint64_t> keys) {
  FixedRows rows;
  for (uint64_t k : keys) rows.emplace_back(k, EncodeValue(k, 7));
  return rows;
}

TEST(PerfbenchChecks, ValueEncodesItsKey) {
  EXPECT_TRUE(ValueMatches(uint64_t{42}, EncodeValue(uint64_t{42}, 3)));
  EXPECT_FALSE(ValueMatches(uint64_t{43}, EncodeValue(uint64_t{42}, 3)));
  std::string_view a = "0123456789abcdef", b = "0123456789abcdee";
  EXPECT_TRUE(ValueMatches(a, EncodeValue(a, 1)));
  EXPECT_FALSE(ValueMatches(b, EncodeValue(a, 1)));
}

TEST(PerfbenchChecks, GetFailsOnMissOrCorruptValue) {
  std::string why;
  const uint64_t v = EncodeValue(uint64_t{5}, 1);
  EXPECT_TRUE(CheckGet(uint64_t{5}, true, v, &why));
  EXPECT_FALSE(CheckGet(uint64_t{5}, false, v, &why));
  EXPECT_FALSE(CheckGet(uint64_t{5}, true, v ^ (uint64_t{1} << 40), &why));
  EXPECT_NE(why.find("another key"), std::string::npos);
  // The sequence bits may change: they are not part of the key tag.
  EXPECT_TRUE(CheckGet(uint64_t{5}, true, v ^ 1, &why));
}

TEST(PerfbenchChecks, OrderedFailsOnCorruptRow) {
  std::string why;
  FixedRows rows = FixedRowsOf({20, 30, 40});
  EXPECT_TRUE(CheckScanOrdered(uint64_t{15}, rows, 16, &why));
  FixedRows before = rows;
  before[0] = {5, EncodeValue(uint64_t{5}, 1)};
  EXPECT_FALSE(CheckScanOrdered(uint64_t{15}, before, 16, &why));
  FixedRows swapped = rows;
  std::swap(swapped[1], swapped[2]);
  EXPECT_FALSE(CheckScanOrdered(uint64_t{15}, swapped, 16, &why));
  FixedRows dup = rows;
  dup[2] = dup[1];
  EXPECT_FALSE(CheckScanOrdered(uint64_t{15}, dup, 16, &why));
  FixedRows bad_value = rows;
  bad_value[1].second = EncodeValue(uint64_t{31}, 1);
  EXPECT_FALSE(CheckScanOrdered(uint64_t{15}, bad_value, 16, &why));
  EXPECT_FALSE(CheckScanOrdered(uint64_t{15}, rows, 2, &why));
}

TEST(PerfbenchChecks, ExactFailsOnMissingExtraOrWrongRow) {
  std::string why;
  EXPECT_TRUE(CheckScanExact(uint64_t{25}, FixedRowsOf({30, 40, 50}), 3,
                             kFixedModel, &why));
  EXPECT_TRUE(CheckScanExact(uint64_t{55}, FixedRowsOf({60}), 3, kFixedModel,
                             &why));
  EXPECT_FALSE(CheckScanExact(uint64_t{25}, FixedRowsOf({30, 50}), 3,
                              kFixedModel, &why));
  EXPECT_FALSE(CheckScanExact(uint64_t{25}, FixedRowsOf({30, 40}), 3,
                              kFixedModel, &why));
  EXPECT_FALSE(CheckScanExact(uint64_t{25}, FixedRowsOf({30, 40, 55}), 3,
                              kFixedModel, &why));
  EXPECT_FALSE(CheckScanExact(uint64_t{25}, FixedRowsOf({40, 50, 60}), 3,
                              kFixedModel, &why));
}

TEST(PerfbenchChecks, CoversFailsOnSkippedKey) {
  std::string why;
  // Extra keys (inserted during the run) are allowed; model keys are not
  // skippable.
  EXPECT_TRUE(CheckScanCovers(uint64_t{25}, FixedRowsOf({30, 35, 40}), 3,
                              kFixedModel, &why));
  EXPECT_TRUE(CheckScanCovers(uint64_t{55}, FixedRowsOf({60}), 3, kFixedModel,
                              &why));
  EXPECT_FALSE(CheckScanCovers(uint64_t{25}, FixedRowsOf({30, 35, 50}), 3,
                               kFixedModel, &why));
  EXPECT_NE(why.find("skipped"), std::string::npos);
  EXPECT_FALSE(CheckScanCovers(uint64_t{25}, FixedRowsOf({30, 40}), 3,
                               kFixedModel, &why));
  EXPECT_FALSE(CheckScanCovers(uint64_t{25}, FixedRowsOf({40, 50, 60}), 3,
                               kFixedModel, &why));
}

TEST(PerfbenchChecks, VarRowsAreCheckedByTheSameRules) {
  std::vector<std::string_view> model = {"aa", "bb", "cc", "dd"};
  auto rows_of = [](std::vector<std::string> keys) {
    VarRows rows;
    for (const std::string& k : keys) {
      rows.emplace_back(k, EncodeValue(std::string_view(k), 2));
    }
    return rows;
  };
  std::string why;
  std::string_view start = "b";
  EXPECT_TRUE(CheckScanExact(start, rows_of({"bb", "cc"}), 2, model, &why));
  EXPECT_TRUE(CheckScanCovers(start, rows_of({"bb", "bc", "cc"}), 3, model,
                              &why));
  VarRows corrupt = rows_of({"bb", "cc"});
  corrupt[1].first = "cd";
  EXPECT_FALSE(CheckScanExact(start, corrupt, 2, model, &why));
  EXPECT_FALSE(CheckScanCovers(start, corrupt, 2, model, &why));
  VarRows wrong_value = rows_of({"bb", "cc"});
  wrong_value[0].second = EncodeValue(std::string_view("zz"), 2);
  EXPECT_FALSE(CheckScanOrdered(start, wrong_value, 2, &why));
}

TEST(PerfbenchChecks, SizeMustMatchPreloadPlusInserts) {
  std::string why;
  EXPECT_TRUE(CheckSize(10, 10, "after the run", &why));
  EXPECT_FALSE(CheckSize(9, 10, "after the run", &why));
  EXPECT_FALSE(CheckSize(11, 10, "after reopen", &why));
}

}  // namespace
}  // namespace perfbench
