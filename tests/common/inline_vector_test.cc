#include "common/inline_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

namespace lsmio {
namespace {

// Elements keep their order and values across the move from the inline
// slots to the heap, and a cleared vector starts inline again.
TEST(InlineVectorTest, SpillsPastInlineCapacityAndRestartsInline) {
  InlineVector<int, 3> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 10; ++i) {
    v.push_back(i * 7);
    ASSERT_EQ(v.size(), static_cast<size_t>(i + 1));
    EXPECT_EQ(v.back(), i * 7);
    for (int j = 0; j <= i; ++j) EXPECT_EQ(v[j], j * 7) << "after " << i + 1 << " pushes";
  }
  v.back() = -1;
  EXPECT_EQ(v[9], -1);

  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(5);
  v.push_back(4);
  std::sort(v.begin(), v.end());
  const std::span<const int> view = v;
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], 4);
  EXPECT_EQ(view[1], 5);
}

}  // namespace
}  // namespace lsmio
