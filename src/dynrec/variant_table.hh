/**
 * @file
 * In-process dynamic function replacement — the DynamoRIO substitute.
 *
 * Pliant uses DynamoRIO's drwrap_replace() at coarse (whole-function)
 * granularity: every approximated function is compiled into the
 * binary in all of its variants, and a Linux signal mapped to each
 * variant tells the runtime which version subsequent calls dispatch
 * to. This module implements the same mechanism in-process: a
 * VariantTable holds the function pointers, an atomic index selects
 * the active one, and a SignalDispatcher maps virtual signal numbers
 * to table switches. Switch latency is measurable (see bench); the
 * paper's steady-state instrumentation cost (3.8% mean, 8.9% max) is
 * carried per app by the catalog profiles (approx::AppProfile::
 * dynrecOverhead), not by this module.
 */

#ifndef PLIANT_DYNREC_VARIANT_TABLE_HH
#define PLIANT_DYNREC_VARIANT_TABLE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/logging.hh"

namespace pliant {
namespace dynrec {

/**
 * Holds all compiled variants of one function and dispatches calls
 * to the active variant. Thread-safe: switching is a relaxed atomic
 * store, calls load the index acquire.
 *
 * @tparam Sig function signature, e.g. double(const Input&).
 */
template <typename Sig>
class VariantTable;

template <typename R, typename... Args>
class VariantTable<R(Args...)>
{
  public:
    using Fn = std::function<R(Args...)>;

    /**
     * @param fn variant body.
     * @param label human-readable variant name.
     * @return the variant's index in this table.
     */
    int
    registerVariant(Fn fn, std::string label)
    {
        variants.push_back(std::move(fn));
        labels.push_back(std::move(label));
        return static_cast<int>(variants.size()) - 1;
    }

    /** Number of registered variants. */
    int size() const { return static_cast<int>(variants.size()); }

    /** Index of the variant calls currently dispatch to. */
    int active() const { return activeIdx.load(std::memory_order_acquire); }

    const std::string &
    label(int idx) const
    {
        return labels.at(static_cast<std::size_t>(idx));
    }

    /**
     * Redirect future calls to variant `idx` (drwrap_replace()).
     * @return number of switches performed so far.
     */
    std::uint64_t
    switchTo(int idx)
    {
        if (idx < 0 || idx >= size())
            util::fatal("variant index ", idx, " out of range (table has ",
                        size(), " variants)");
        activeIdx.store(idx, std::memory_order_release);
        return ++switchCount;
    }

    /** Call through the dispatch table. */
    R
    operator()(Args... args) const
    {
        const int idx = activeIdx.load(std::memory_order_acquire);
        ++callCount;
        return variants[static_cast<std::size_t>(idx)](
            std::forward<Args>(args)...);
    }

    std::uint64_t switches() const { return switchCount; }
    std::uint64_t calls() const { return callCount; }

  private:
    std::vector<Fn> variants;
    std::vector<std::string> labels;
    std::atomic<int> activeIdx{0};
    std::uint64_t switchCount = 0;
    mutable std::uint64_t callCount = 0;
};

/**
 * Maps virtual "Linux signal" numbers to variant switches across one
 * or more tables, mirroring Pliant's signal-per-variant design. The
 * dispatcher is deliberately process-local (no real signals): the
 * actuator calls raise() and the mapped switch happens synchronously,
 * which keeps the mechanism testable and portable.
 */
class SignalDispatcher
{
  public:
    using SwitchAction = std::function<void()>;

    /** Bind a signal number to an action (usually a table switch). */
    void
    mapSignal(int signum, SwitchAction action)
    {
        if (actions.count(signum))
            util::fatal("signal ", signum, " already mapped");
        actions[signum] = std::move(action);
    }

    /** Deliver a signal; unknown signals are fatal (config error). */
    void
    raise(int signum)
    {
        auto it = actions.find(signum);
        if (it == actions.end())
            util::fatal("raise of unmapped signal ", signum);
        ++deliveredCount;
        it->second();
    }

    bool isMapped(int signum) const { return actions.count(signum) > 0; }
    std::size_t mappedCount() const { return actions.size(); }
    std::uint64_t delivered() const { return deliveredCount; }

  private:
    std::map<int, SwitchAction> actions;
    std::uint64_t deliveredCount = 0;
};

} // namespace dynrec
} // namespace pliant

#endif // PLIANT_DYNREC_VARIANT_TABLE_HH
