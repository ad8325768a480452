/**
 * @file
 * Convenience wrapper binding a real approximate kernel to the
 * dynamic-replacement machinery: every knob setting of the kernel
 * becomes one entry in a VariantTable, each mapped to a virtual
 * signal, so tests and examples can exercise the exact switch path
 * Pliant's actuator uses.
 */

#ifndef PLIANT_DYNREC_INSTRUMENTED_HH
#define PLIANT_DYNREC_INSTRUMENTED_HH

#include <memory>
#include <vector>

#include "dynrec/variant_table.hh"
#include "kernels/kernel.hh"

namespace pliant {
namespace dynrec {

/**
 * A kernel whose variant selection is driven through signals, the way
 * Pliant drives real applications through DynamoRIO.
 *
 * Signals are allocated starting at kFirstSignal (mirroring Pliant's
 * use of the real-time signal range SIGRTMIN..).
 */
class InstrumentedKernel
{
  public:
    static constexpr int kFirstSignal = 34; // SIGRTMIN on Linux

    explicit InstrumentedKernel(std::unique_ptr<kernels::ApproxKernel> k);

    /** Number of registered variants (= size of the knob space). */
    int variantCount() const { return table.size(); }

    /** Signal number that selects variant `idx`. */
    int signalFor(int idx) const { return kFirstSignal + idx; }

    /** Deliver a signal, switching the active variant. */
    void raiseSignal(int signum) { dispatcher.raise(signum); }

    /** Currently active variant index. */
    int activeVariant() const { return table.active(); }

    /** Knob settings of variant `idx`. */
    const kernels::Knobs &knobsOf(int idx) const
    {
        return knobSpace.at(static_cast<std::size_t>(idx));
    }

    /** Execute the kernel through the dispatch table. */
    kernels::KernelResult invoke() { return table(); }

    std::uint64_t switchCount() const { return table.switches(); }

  private:
    std::unique_ptr<kernels::ApproxKernel> kernel;
    std::vector<kernels::Knobs> knobSpace;
    VariantTable<kernels::KernelResult()> table;
    SignalDispatcher dispatcher;
};

} // namespace dynrec
} // namespace pliant

#endif // PLIANT_DYNREC_INSTRUMENTED_HH
