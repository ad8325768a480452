/**
 * @file
 * util::firstDuplicate against the pairwise scan it replaces: the
 * same index on hand-picked lists and on SplitMix64-driven random
 * lists of 1 to 200 names.
 */

#include "util/dedup.hh"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hh"

namespace {

using pliant::util::firstDuplicate;

/** The pairwise reference: lowest i whose name recurs at some j > i. */
std::size_t
pairwiseFirstDuplicate(const std::vector<std::string> &names)
{
    for (std::size_t i = 0; i < names.size(); ++i)
        for (std::size_t j = i + 1; j < names.size(); ++j)
            if (names[i] == names[j])
                return i;
    return names.size();
}

TEST(FirstDuplicateTest, HandPickedLists)
{
    using Names = std::vector<std::string>;
    EXPECT_EQ(firstDuplicate(Names{}), 0U);
    EXPECT_EQ(firstDuplicate(Names{"a"}), 1U);
    EXPECT_EQ(firstDuplicate(Names{"a", "b", "c"}), 3U);
    EXPECT_EQ(firstDuplicate(Names{"a", "b", "b", "a"}), 0U);
    EXPECT_EQ(firstDuplicate(Names{"x", "b", "a", "b", "a"}), 1U);
    EXPECT_EQ(firstDuplicate(Names{"a", "a", "a"}), 0U);
    // Prefixes and the empty name are names like any other.
    EXPECT_EQ(firstDuplicate(Names{"node1", "node", "node10"}), 3U);
    EXPECT_EQ(firstDuplicate(Names{"", "x", ""}), 0U);
}

TEST(FirstDuplicateTest, LongListsMatchThePairwiseScan)
{
    // 1000 distinct names, then plant a b..b a pattern deep inside:
    // the answer is the index of the first planted name.
    std::vector<std::string> names;
    for (int i = 0; i < 1000; ++i)
        names.push_back("node" + std::to_string(i));
    EXPECT_EQ(firstDuplicate(names), names.size());
    names[700] = names[400]; // "node400" recurs
    names[900] = names[100]; // "node100" recurs, lower first index
    EXPECT_EQ(firstDuplicate(names), 100U);
    EXPECT_EQ(pairwiseFirstDuplicate(names), 100U);
}

TEST(FirstDuplicateTest, ProjectionComparesInPlace)
{
    struct Item
    {
        std::string label;
        std::string_view view() const { return label; }
    };
    std::vector<Item> items;
    for (int i = 0; i < 40; ++i)
        items.push_back({"svc-" + std::to_string(i % 37)});
    EXPECT_EQ(firstDuplicate(items, &Item::view), 0U);
    EXPECT_EQ(firstDuplicate(items, &Item::label), 0U);
}

TEST(FirstDuplicateTest, RandomListsMatchThePairwiseScan)
{
    // The alphabet size sets how often names collide, from almost
    // always to almost never.
    pliant::util::SplitMix64 sm(0xD00Du);
    for (int iter = 0; iter < 400; ++iter) {
        const std::size_t n = 1 + sm.next() % 200;
        const std::size_t alphabet = 1 + sm.next() % (4 * n);
        std::vector<std::string> names;
        for (std::size_t i = 0; i < n; ++i)
            names.push_back("n" + std::to_string(sm.next() % alphabet));
        ASSERT_EQ(firstDuplicate(names), pairwiseFirstDuplicate(names))
            << "iteration " << iter << ", n " << n << ", alphabet "
            << alphabet;
    }
}

} // namespace
