#include "src/geo/bbox.h"

#include <gtest/gtest.h>

namespace rap::geo {
namespace {

TEST(BBox, DefaultIsEmpty) {
  const BBox box;
  EXPECT_TRUE(box.empty());
  EXPECT_FALSE(box.contains({0.0, 0.0}));
  EXPECT_EQ(box.width(), 0.0);
  EXPECT_EQ(box.height(), 0.0);
}

TEST(BBox, FromCornersAnyOrientation) {
  const BBox box({5.0, -1.0}, {1.0, 3.0});
  EXPECT_EQ(box.min(), (Point{1.0, -1.0}));
  EXPECT_EQ(box.max(), (Point{5.0, 3.0}));
  EXPECT_DOUBLE_EQ(box.width(), 4.0);
  EXPECT_DOUBLE_EQ(box.height(), 4.0);
}

TEST(BBox, CenteredSquare) {
  const BBox box = BBox::centered_square({10.0, 10.0}, 4.0);
  EXPECT_EQ(box.min(), (Point{8.0, 8.0}));
  EXPECT_EQ(box.max(), (Point{12.0, 12.0}));
  EXPECT_EQ(box.center(), (Point{10.0, 10.0}));
}

TEST(BBox, CenteredSquareRejectsNegativeSide) {
  EXPECT_THROW(BBox::centered_square({0.0, 0.0}, -1.0), std::invalid_argument);
}

TEST(BBox, ContainsIsClosed) {
  const BBox box({0.0, 0.0}, {2.0, 2.0});
  EXPECT_TRUE(box.contains({0.0, 0.0}));
  EXPECT_TRUE(box.contains({2.0, 2.0}));
  EXPECT_TRUE(box.contains({1.0, 1.0}));
  EXPECT_FALSE(box.contains({2.0001, 1.0}));
  EXPECT_FALSE(box.contains({1.0, -0.0001}));
}

TEST(BBox, ExpandGrows) {
  BBox box;
  box.expand({1.0, 1.0});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains({1.0, 1.0}));
  box.expand({-1.0, 3.0});
  EXPECT_TRUE(box.contains({0.0, 2.0}));
  EXPECT_EQ(box.min(), (Point{-1.0, 1.0}));
  EXPECT_EQ(box.max(), (Point{1.0, 3.0}));
}

TEST(BBox, DegenerateSquareIsPoint) {
  const BBox box = BBox::centered_square({1.0, 2.0}, 0.0);
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains({1.0, 2.0}));
  EXPECT_FALSE(box.contains({1.0, 2.1}));
}

}  // namespace
}  // namespace rap::geo
