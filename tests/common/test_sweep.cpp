#include "common/sweep.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace oscs {
namespace {

TEST(RangeTest, ValuesCoverInclusiveInterval) {
  const Range r{0.1, 0.3, 5};
  const auto v = r.values();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.1);
  EXPECT_DOUBLE_EQ(v.back(), 0.3);
}

TEST(RangeTest, SingleStepYieldsLowerBound) {
  const Range r{2.0, 9.0, 1};
  const auto v = r.values();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v[0], 2.0);
}

TEST(RangeTest, ZeroStepsRejected) {
  EXPECT_THROW((Range{0.0, 1.0, 0}).values(), std::invalid_argument);
}

TEST(GridForEach, VisitsCartesianProductRowMajor) {
  std::vector<std::pair<double, double>> visited;
  grid_for_each(Range{0.0, 1.0, 2}, Range{10.0, 30.0, 3},
                [&](double x, double y) { visited.emplace_back(x, y); });
  ASSERT_EQ(visited.size(), 6u);
  EXPECT_EQ(visited[0], (std::pair{0.0, 10.0}));
  EXPECT_EQ(visited[1], (std::pair{0.0, 20.0}));
  EXPECT_EQ(visited[2], (std::pair{0.0, 30.0}));
  EXPECT_EQ(visited[3], (std::pair{1.0, 10.0}));
  EXPECT_EQ(visited[5], (std::pair{1.0, 30.0}));
}

TEST(TensorForEach, VisitsCartesianPowerLastAxisFastest) {
  std::vector<std::vector<double>> visited;
  tensor_for_each({0.25, 0.5}, 3, [&](const std::vector<double>& point) {
    visited.push_back(point);
  });
  ASSERT_EQ(visited.size(), 8u);
  EXPECT_EQ(visited[0], (std::vector<double>{0.25, 0.25, 0.25}));
  EXPECT_EQ(visited[1], (std::vector<double>{0.25, 0.25, 0.5}));
  EXPECT_EQ(visited[2], (std::vector<double>{0.25, 0.5, 0.25}));
  EXPECT_EQ(visited[4], (std::vector<double>{0.5, 0.25, 0.25}));
  EXPECT_EQ(visited[7], (std::vector<double>{0.5, 0.5, 0.5}));

  std::size_t calls = 0;
  tensor_for_each({0.1, 0.2, 0.3}, 1,
                  [&](const std::vector<double>&) { ++calls; });
  EXPECT_EQ(calls, 3u);
  tensor_for_each({}, 2, [&](const std::vector<double>&) { ++calls; });
  tensor_for_each({0.1}, 0, [&](const std::vector<double>&) { ++calls; });
  EXPECT_EQ(calls, 3u);
}

TEST(Pareto, KeepsOnlyNonDominatedPoints) {
  std::vector<ParetoPoint> pts{
      {1.0, 10.0, 0},  // front
      {2.0, 5.0, 1},   // front
      {3.0, 7.0, 2},   // dominated by {2,5}
      {4.0, 1.0, 3},   // front
      {5.0, 2.0, 4},   // dominated by {4,1}
  };
  const auto front = pareto_front(pts);
  ASSERT_EQ(front.size(), 3u);
  EXPECT_EQ(front[0].tag, 0u);
  EXPECT_EQ(front[1].tag, 1u);
  EXPECT_EQ(front[2].tag, 3u);
}

TEST(Pareto, SortedByFirstObjective) {
  std::vector<ParetoPoint> pts{
      {5.0, 1.0, 0}, {1.0, 9.0, 1}, {3.0, 4.0, 2}};
  const auto front = pareto_front(pts);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_LE(front[i - 1].objective_a, front[i].objective_a);
    EXPECT_GE(front[i - 1].objective_b, front[i].objective_b);
  }
}

TEST(Pareto, DuplicateObjectivesKeepOne) {
  std::vector<ParetoPoint> pts{{1.0, 1.0, 0}, {1.0, 1.0, 1}};
  const auto front = pareto_front(pts);
  EXPECT_EQ(front.size(), 1u);
}

TEST(Pareto, EmptyInputYieldsEmptyFront) {
  EXPECT_TRUE(pareto_front({}).empty());
}

}  // namespace
}  // namespace oscs
