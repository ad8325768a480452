/**
 * @file
 * Linear duplicate detection over name lists, shared by the config
 * validators (node names, per-node tenants, colocation tenants, app
 * lists).
 */

#ifndef PLIANT_UTIL_DEDUP_HH
#define PLIANT_UTIL_DEDUP_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string_view>
#include <vector>

namespace pliant {
namespace util {

/**
 * Index of the first element of `items` whose name recurs later: the
 * lowest i with name(items[i]) == name(items[j]) for some j > i —
 * exactly the element a pairwise (i, j > i) scan reports first.
 * Returns items.size() when every name is distinct. `name` projects
 * an element to something convertible to std::string_view (identity
 * by default), so names are compared in place, never copied.
 *
 * One open-addressed table of indices, allocated once: linear
 * expected time, no per-name heap node.
 */
template <typename Items, typename Name = std::identity>
std::size_t
firstDuplicate(const Items &items, Name name = {})
{
    const std::size_t n = items.size();
    const auto view = [&](std::size_t i) {
        return std::string_view(std::invoke(name, items[i]));
    };

    // Each slot holds the index of a name's first occurrence; a later
    // equal name probes to it and proposes that index. The answer is
    // the lowest index proposed.
    std::size_t capacity = 1;
    while (capacity < 2 * n)
        capacity <<= 1;
    const std::size_t empty = n;
    std::vector<std::size_t> slots(capacity, empty);
    const std::hash<std::string_view> hash;
    std::size_t first = n;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string_view key = view(i);
        std::size_t s = hash(key) & (capacity - 1);
        while (slots[s] != empty && view(slots[s]) != key)
            s = (s + 1) & (capacity - 1);
        if (slots[s] == empty)
            slots[s] = i;
        else
            first = std::min(first, slots[s]);
    }
    return first;
}

} // namespace util
} // namespace pliant

#endif // PLIANT_UTIL_DEDUP_HH
