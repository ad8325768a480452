/**
 * @file
 * Strict parsing of command-line flags: numeric flag values and the
 * figure benches' optional --quick.
 */

#ifndef PLIANT_UTIL_CLI_HH
#define PLIANT_UTIL_CLI_HH

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>

namespace pliant {
namespace util {

/**
 * The value of numeric flag @p flag: all of @p text must be one
 * number of type T in [lo, hi]. An empty value, leading space or
 * '+', trailing junk, a negative value, overflow, inf/nan, or a
 * value outside [lo, hi] prints an error naming the flag plus the
 * binary's @p usage line to stderr and exits with status 2, so a
 * malformed flag is never clamped or defaulted.
 */
template <typename T>
T
parseFlag(const std::string &flag, const std::string &text,
          const std::string &usage, T lo = T(0),
          T hi = std::numeric_limits<T>::max())
{
    T value{};
    const char *first = text.data();
    const char *last = first + text.size();
    const auto [end, ec] = std::from_chars(first, last, value);
    if (text.empty() || ec != std::errc() || end != last ||
        !(value >= lo && value <= hi)) {
        std::cerr << "error: " << flag << ": invalid value '" << text
                  << "' (expected a number >= " << lo;
        if (hi != std::numeric_limits<T>::max())
            std::cerr << " and <= " << hi;
        std::cerr << ")\n" << usage << '\n';
        std::exit(2);
    }
    return value;
}

/**
 * The command line of a figure bench that takes at most --quick:
 * true when it is exactly `<bench> --quick`. Any other argument (a
 * typo such as --quik, a flag the bench does not have, or --quick
 * when @p has_quick is false) prints `usage: <bench> [--quick]` (or
 * `usage: <bench>`) to stderr and exits with status 2, so a bench
 * never runs a different sweep than the one asked for.
 */
inline bool
quickFlag(int argc, char **argv, const std::string &bench,
          bool has_quick = true)
{
    const bool quick =
        has_quick && argc == 2 && std::string(argv[1]) == "--quick";
    if (argc > 1 && !quick) {
        const char *flags = has_quick ? " [--quick]" : "";
        std::cerr << "usage: " << bench << flags << '\n';
        std::exit(2);
    }
    return quick;
}

} // namespace util
} // namespace pliant

#endif // PLIANT_UTIL_CLI_HH
